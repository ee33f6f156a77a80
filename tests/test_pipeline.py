"""Pipeline config, artifacts, determinism, aggregation, comparison, CLI."""

import json
import logging
import multiprocessing
import os
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from ksvar.cli import main as cli_main
from ksvar.errors import (
    ConfigError,
    ConstantColumn,
    InsufficientSamples,
    LabelMismatch,
    WindowTooLong,
)
from ksvar.panel import NoiseModel, TimeSeriesPanel, read_csv_panel, write_csv_panel
from ksvar.pipeline import (
    GLOBAL_METRICS,
    PER_NODE_METRICS,
    SEGMENT_STAGES,
    PipelineConfig,
    _pin_blas_to_one_thread,
    _write_json,
    _write_ndjson,
    aggregate_networks,
    compare_runs,
    load_network,
    run_pipeline,
    save_network,
)
from ksvar import solver
from ksvar.solver import EffectiveNetwork
from ksvar.synth import SynthConfig, generate_truth, simulate


def write_panel_csv(path, t=60, n=3, seed=0, rate=1.0):
    cfg = SynthConfig(
        n_nodes=n,
        n_samples=t,
        lag=1,
        edge_density=0.3,
        coefficient_scale=0.8,
        noise=NoiseModel(variance=0.2),
        seed=seed,
        sample_rate_hz=rate,
    )
    panel = simulate(generate_truth(cfg), cfg)
    write_csv_panel(panel, str(path))
    return panel


def base_config(inp, out, **kwargs):
    settings = dict(
        input_path=str(inp),
        output_dir=str(out),
        lag=1,
        kernel="linear",
        lam=0.5,
        max_iter=300,
        tau_alpha=0.01,
    )
    settings.update(kwargs)
    return PipelineConfig(**settings)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as handle:
                out[rel] = handle.read()
    return out


def _run_with_one_blas_thread(cfg):
    _pin_blas_to_one_thread()
    run_pipeline(cfg)


class TestPipelineConfig:
    def test_exactly_one_of_each_choice_pair(self, tmp_path):
        with pytest.raises(ConfigError):
            base_config(tmp_path / "x.csv", tmp_path / "o", lambda_grid=(0.1, 1.0))
        with pytest.raises(ConfigError):
            base_config(tmp_path / "x.csv", tmp_path / "o", lam=None, lambda_grid=None)
        with pytest.raises(ConfigError):
            base_config(tmp_path / "x.csv", tmp_path / "o", dictionary=("linear",))
        with pytest.raises(ConfigError):
            base_config(tmp_path / "x.csv", tmp_path / "o", kernel=None)
        with pytest.raises(ConfigError):
            base_config(tmp_path / "x.csv", tmp_path / "o", bic_candidates=(1, 2))
        with pytest.raises(ConfigError):
            base_config(tmp_path / "x.csv", tmp_path / "o", lag=None)

    def test_value_checks(self, tmp_path):
        inp, out = tmp_path / "x.csv", tmp_path / "o"
        with pytest.raises(ConfigError):
            base_config(inp, out, lam=0.0)  # group_l1 needs positive lambda
        base_config(inp, out, lam=0.0, regularizer="squared")
        with pytest.raises(ConfigError):
            base_config(inp, out, overlap_s=0.5)  # overlap without window
        with pytest.raises(ConfigError):
            base_config(inp, out, lam=None, lambda_grid=(0.1,), cv_folds=1)
        with pytest.raises(ConfigError):
            base_config(inp, out, aggregate="intersection")
        with pytest.raises(ConfigError):
            base_config(inp, out, tau_alpha=-0.1)
        with pytest.raises(ConfigError):
            base_config(inp, out, kernel="poly:q=3")
        with pytest.raises(ConfigError):
            base_config(inp, out, kernel=None, dictionary=())

    def test_dict_round_trip(self, tmp_path):
        cfg = base_config(
            tmp_path / "x.csv",
            tmp_path / "o",
            kernel=None,
            dictionary=("linear", "poly:d=2,c=0"),
        )
        again = PipelineConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_and_missing_keys(self, tmp_path):
        cfg = base_config(tmp_path / "x.csv", tmp_path / "o")
        data = cfg.to_dict()
        data["typo_key"] = 1
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(data)
        # settings that were removed are unknown keys, not silently ignored
        for removed in ({"workers": 1}, {"jitter": 1e-10}):
            with pytest.raises(ConfigError, match="unknown config keys"):
                PipelineConfig.from_dict({**cfg.to_dict(), **removed})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"lag": 1})

    def test_from_json_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "input_path": "a.csv",
                    "output_dir": "outdir",
                    "lag": 1,
                    "kernel": "linear",
                    "lam": 0.5,
                }
            )
        )
        cfg = PipelineConfig.from_json(str(cfg_path), lam=0.9, seed=4)
        assert cfg.lam == 0.9
        assert cfg.seed == 4
        assert cfg.input_path == "a.csv"
        # None overrides are ignored, not applied
        cfg2 = PipelineConfig.from_json(str(cfg_path), lam=None)
        assert cfg2.lam == 0.5


class TestNetworkRoundTrip:
    def make_net(self, seed=0):
        rng = np.random.default_rng(seed)
        weights = np.where(rng.random((2, 4, 4)) < 0.4, rng.random((2, 4, 4)), 0.0)
        tau = 0.3
        supports = (weights >= tau) & (weights > 0)
        return EffectiveNetwork(
            supports=supports,
            weights=weights,
            tau_alpha=tau,
            node_labels=("a", "b", "c", "d"),
        )

    def test_save_load_is_exact(self, tmp_path):
        net = self.make_net()
        path = tmp_path / "edges.json"
        save_network(net, str(path))
        back = load_network(str(path))
        np.testing.assert_array_equal(back.supports, net.supports)
        np.testing.assert_array_equal(back.weights, net.weights)
        assert back.tau_alpha == net.tau_alpha
        assert back.node_labels == net.node_labels

    def test_subthreshold_weights_survive(self, tmp_path):
        weights = np.zeros((1, 2, 2))
        weights[0, 0, 1] = 0.001  # below tau, still stored
        net = EffectiveNetwork(
            supports=np.zeros((1, 2, 2), bool), weights=weights, tau_alpha=0.5
        )
        path = tmp_path / "edges.json"
        save_network(net, str(path))
        back = load_network(str(path))
        assert back.weights[0, 0, 1] == 0.001
        assert not back.supports.any()

    def test_edge_rows_sorted(self, tmp_path):
        net = self.make_net(seed=1)
        path = tmp_path / "edges.json"
        save_network(net, str(path))
        data = json.loads(path.read_text())
        keys = [(e["lag"], e["src"], e["dst"]) for e in data["edges"]]
        assert keys == sorted(keys)
        assert data["schema_version"] == 1

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": ["a"], "edges": []}))
        with pytest.raises(ConfigError):
            load_network(str(path))
        good = {"src": 0, "dst": 1, "lag": 1, "weight": 0.5}
        bad_edges = [
            {**good, "src": -1},  # would wrap round to the last node
            {**good, "src": 5},
            {**good, "dst": 3},
            {**good, "lag": 2},
            {**good, "lag": -1},
            {key: v for key, v in good.items() if key != "lag"},
            {**good, "src": 1.5},
            {**good, "src": True},
            {**good, "dst": 10**30},  # overflows int64
            {**good, "weight": "heavy"},
            {key: v for key, v in good.items() if key != "weight"},
            [0, 1, 1, 0.5],
        ]
        header = {"nodes": ["a", "b", "c"], "lags": 1, "tau_alpha": 0.1}
        for edge in bad_edges:
            path.write_text(json.dumps({**header, "edges": [good, edge]}))
            with pytest.raises(ConfigError):
                load_network(str(path))
        for bad_header in ({"lags": 1.7}, {"lags": "1"}, {"tau_alpha": "0.1"}):
            path.write_text(json.dumps({**header, **bad_header, "edges": [good]}))
            with pytest.raises(ConfigError):
                load_network(str(path))


class TestRunPipeline:
    def test_single_segment_artifacts(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out = tmp_path / "run"
        manifest = run_pipeline(base_config(inp, out))
        assert manifest["n_segments"] == 1
        assert manifest["schema_version"] == 1
        assert manifest["segments"][0]["name"] == "seg_000"
        assert manifest["segments"][0]["lag"] == 1
        assert manifest["segments"][0]["lambda"] == 0.5
        for name in ("edges.json", "metrics.json", "metrics.csv", "diagnostics.ndjson"):
            assert (out / "seg_000" / name).exists()
        assert (out / "manifest.json").exists()
        assert not (out / "error.json").exists()
        assert not (out / "seg_000" / "cv.json").exists()
        assert not (out / "seg_000" / "attribution.csv").exists()
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest

    def test_diagnostics_trace_plus_summary(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out = tmp_path / "run"
        run_pipeline(base_config(inp, out))
        lines = (out / "seg_000" / "diagnostics.ndjson").read_text().splitlines()
        records = [json.loads(s) for s in lines]
        assert records[-1]["summary"] is True
        assert records[-1]["iterations"] == len(records) - 1
        assert set(records[0]) == {"iteration", "primal_residual", "dual_residual"}
        assert records[-1]["relative_gap"] == records[-2]["relative_gap"]

    def test_segmented_run_counts_windows(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=100, rate=10.0)  # 10 s of data at 10 Hz
        out = tmp_path / "run"
        manifest = run_pipeline(base_config(inp, out, window_s=2.0))
        assert manifest["n_segments"] == 5
        assert sorted(s["name"] for s in manifest["segments"]) == [
            f"seg_{i:03d}" for i in range(5)
        ]
        for i in range(5):
            assert (out / f"seg_{i:03d}" / "edges.json").exists()

    def test_overlapping_windows(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=100, rate=10.0)
        out = tmp_path / "run"
        manifest = run_pipeline(base_config(inp, out, window_s=2.0, overlap_s=1.0))
        # window 20 samples, step 10: floor((100-20)/10)+1
        assert manifest["n_segments"] == 9

    def test_dictionary_run_writes_attribution(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out = tmp_path / "run"
        run_pipeline(
            base_config(inp, out, kernel=None, dictionary=("linear", "poly:d=2,c=0"))
        )
        attr = (out / "seg_000" / "attribution.csv").read_text().splitlines()
        assert attr[0] == "src,dst,lag,kernel,block_norm"

    def test_grid_run_writes_cv_table(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out = tmp_path / "run"
        manifest = run_pipeline(
            base_config(inp, out, lam=None, lambda_grid=(0.1, 2.0), cv_folds=3)
        )
        cv = json.loads((out / "seg_000" / "cv.json").read_text())
        assert cv["chosen_lambda"] in (0.1, 2.0)
        assert len(cv["table"]) == 2
        assert manifest["segments"][0]["lambda"] == cv["chosen_lambda"]

    def test_bic_run_selects_lag(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=80)
        out = tmp_path / "run"
        manifest = run_pipeline(
            base_config(inp, out, lag=None, bic_candidates=(1, 2))
        )
        assert manifest["segments"][0]["lag"] in (1, 2)

    def test_bic_run_scores_the_dictionary(self, tmp_path, monkeypatch):
        # b follows a(t-2)^2, which only the Gaussian kernel can see: lag
        # selection must score the run's whole dictionary, with its seed
        rng = np.random.default_rng(0)
        y = np.zeros((120, 2))
        y[:, 0] = rng.normal(size=120)
        y[2:, 1] = y[:-2, 0] ** 2 + 0.1 * rng.normal(size=118)
        inp = tmp_path / "panel.csv"
        write_csv_panel(
            TimeSeriesPanel(values=y, node_labels=("a", "b"), sample_rate_hz=1.0), str(inp)
        )
        calls = []
        build = solver.build_kernel_set

        def recording_build(view, kernels, seed=0):
            calls.append((kernels, seed))
            return build(view, kernels, seed=seed)

        monkeypatch.setattr(solver, "build_kernel_set", recording_build)
        cfg = base_config(
            inp,
            tmp_path / "run",
            lag=None,
            bic_candidates=(1, 2, 3),
            kernel=None,
            dictionary=("linear", "gaussian:sigma=median"),
            max_iter=50,
            seed=5,
        )
        manifest = run_pipeline(cfg)
        assert manifest["segments"][0]["lag"] == 2
        assert len(calls) == 3
        assert all(kernels == cfg.kernel_specs() and seed == 5 for kernels, seed in calls)

    def test_outputs_deterministic_up_to_timestamp(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out = tmp_path / "run"
        cfg = base_config(inp, out, kernel="gaussian:sigma=median")
        run_pipeline(cfg)
        first = tree_bytes(out)
        run_pipeline(cfg)
        second = tree_bytes(out)
        assert set(first) == set(second)
        for rel in first:
            if rel == "manifest.json":
                a = json.loads(first[rel])
                b = json.loads(second[rel])
                # the timestamp and the stage timings vary from run to run
                for manifest in (a, b):
                    manifest.pop("created_utc")
                    for seg in manifest["segments"]:
                        seg.pop("timings")
                assert a == b
            else:
                assert first[rel] == second[rel], rel

    @pytest.mark.parametrize("selection", [False, True])
    def test_manifest_records_stage_timings(self, tmp_path, selection):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=40, n=4)
        kwargs = {}
        if selection:
            kwargs = dict(lag=None, bic_candidates=(1, 2), lam=None,
                          lambda_grid=(0.1, 1.0), cv_folds=3)
        manifest = run_pipeline(base_config(inp, tmp_path / "run", **kwargs))
        timings = manifest["segments"][0]["timings"]
        assert tuple(timings) == SEGMENT_STAGES
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        for stage in ("kernels", "fit", "threshold", "metrics", "write"):
            assert timings[stage] > 0.0, stage
        # a stage the configuration skips records exactly zero
        for stage in ("lag_selection", "cv"):
            assert (timings[stage] > 0.0) == selection, stage
        on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert on_disk["segments"][0]["timings"] == timings

    def test_no_standardize_changes_fit(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out1, out2 = tmp_path / "std", tmp_path / "raw"
        run_pipeline(base_config(inp, out1, standardize=True))
        run_pipeline(base_config(inp, out2, standardize=False))
        e1 = (out1 / "seg_000" / "edges.json").read_bytes()
        e2 = (out2 / "seg_000" / "edges.json").read_bytes()
        assert e1 != e2

    def test_error_in_segment_stage(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=40)  # 40 s at 1 Hz
        out = tmp_path / "run"
        cfg = base_config(inp, out, window_s=100.0)
        with pytest.raises(WindowTooLong):
            run_pipeline(cfg)
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "WindowTooLong"
        assert err["stage"] == "segment"
        assert err["completed_segments"] == []
        assert not (out / "manifest.json").exists()

    def test_error_in_fit_stage(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=40)
        out = tmp_path / "run"
        with pytest.raises(InsufficientSamples):
            run_pipeline(base_config(inp, out, lag=50))
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "fit segments"

    def test_error_record_lists_segments_written_before_the_failure(self, tmp_path):
        values = np.random.default_rng(0).normal(size=(60, 3))
        values[40:, 0] = 1.0  # column a is constant in the third 20 s window
        inp = tmp_path / "panel.csv"
        write_csv_panel(
            TimeSeriesPanel(values=values, node_labels=("a", "b", "c"), sample_rate_hz=1.0),
            str(inp),
        )
        out = tmp_path / "run"
        with pytest.raises(ConstantColumn):
            run_pipeline(base_config(inp, out, window_s=20.0))
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConstantColumn"
        assert err["stage"] == "fit segments"
        assert err["completed_segments"] == ["seg_000", "seg_001"]
        for name in err["completed_segments"]:
            assert (out / name / "metrics.json").exists()
        assert not (out / "manifest.json").exists()

    def test_pooled_failure_lists_every_segment_written(self, tmp_path, monkeypatch):
        # with two workers seg_002 may finish after seg_001 has failed; the
        # record must name exactly the segments whose reports are on disk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        values = np.random.default_rng(0).normal(size=(60, 3))
        values[20:40, 0] = 1.0  # column a is constant in the second 20 s window
        inp = tmp_path / "panel.csv"
        write_csv_panel(
            TimeSeriesPanel(values=values, node_labels=("a", "b", "c"), sample_rate_hz=1.0),
            str(inp),
        )
        out = tmp_path / "run"
        with pytest.raises(ConstantColumn):
            run_pipeline(base_config(inp, out, window_s=20.0))
        assert multiprocessing.active_children() == []
        err = json.loads((out / "error.json").read_text())
        assert err["stage"] == "fit segments"
        written = sorted(p.parent.name for p in out.glob("seg_*/metrics.json"))
        assert "seg_000" in written and "seg_001" not in written
        assert err["completed_segments"] == written
        assert not (out / "manifest.json").exists()
        values[20:40, 0] = np.random.default_rng(1).normal(size=20)
        write_csv_panel(
            TimeSeriesPanel(values=values, node_labels=("a", "b", "c"), sample_rate_hz=1.0),
            str(inp),
        )
        manifest = run_pipeline(base_config(inp, out, window_s=20.0))
        assert multiprocessing.active_children() == []
        assert manifest["workers"] == 2
        assert not (out / "error.json").exists()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
    )
    def test_pool_writes_the_serial_bytes(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=100, rate=10.0)
        kwargs = dict(
            window_s=2.0,
            kernel=None,
            dictionary=("linear", "gaussian:sigma=median"),
            aggregate="union",
        )
        # pooled fits use one BLAS thread, so the serial run does as well;
        # it runs in a forked child to leave this process's BLAS as it was
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial_cfg = base_config(inp, tmp_path / "serial", **kwargs)
        child = multiprocessing.get_context("fork").Process(
            target=_run_with_one_blas_thread, args=(serial_cfg,)
        )
        child.start()
        child.join(timeout=120)
        assert not child.is_alive() and child.exitcode == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = run_pipeline(base_config(inp, tmp_path / "pool", **kwargs))
        assert pooled["workers"] == 2
        serial = json.loads((tmp_path / "serial" / "manifest.json").read_text())
        assert serial["workers"] == 1
        a, b = tree_bytes(tmp_path / "serial"), tree_bytes(tmp_path / "pool")
        assert set(a) == set(b)
        assert len([rel for rel in a if rel.endswith("attribution.csv")]) == 5
        for rel in a:
            if rel != "manifest.json":
                assert a[rel] == b[rel], rel

    def test_success_removes_stale_error_record(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=40)
        out = tmp_path / "run"
        with pytest.raises(InsufficientSamples):
            run_pipeline(base_config(inp, out, lag=50))
        assert (out / "error.json").exists()
        run_pipeline(base_config(inp, out))
        assert not (out / "error.json").exists()
        assert (out / "manifest.json").exists()

    def test_non_convergence_is_reported(self, tmp_path, caplog):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=100, rate=10.0)
        names = [f"seg_{i:03d}" for i in range(5)]
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(
                base_config(inp, tmp_path / "capped", window_s=2.0, max_iter=1)
            )
        tally = manifest["convergence"]
        # one iteration cannot meet the tolerances, so some residual exceeds its own
        assert tally.pop("worst_residual_ratio") > 1.0
        assert tally.pop("worst_relative_gap") > 1e-2
        assert tally == {
            "converged": 0,
            "segments": 5,
            "not_converged": names,
        }
        ratios = [seg["residual_ratio"] for seg in manifest["segments"]]
        assert all(ratio > 1.0 for ratio in ratios)
        warned = [r for r in caplog.records if r.name == "ksvar"]
        assert [r.levelno for r in warned] == [logging.WARNING] * 5
        for name, record in zip(names, warned):
            assert name in record.getMessage()
            assert "without converging" in record.getMessage()

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(
                base_config(inp, tmp_path / "ridge", window_s=2.0, regularizer="squared")
            )
        assert manifest["convergence"] == {
            "converged": 5,
            "segments": 5,
            "not_converged": [],
            "worst_residual_ratio": 0.0,
            "worst_relative_gap": 0.0,
        }
        assert not [r for r in caplog.records if r.name == "ksvar"]

    def test_relative_gap_is_reported(self, tmp_path, caplog):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=100, rate=10.0)
        out = tmp_path / "capped"
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(base_config(inp, out, window_s=2.0, max_iter=5))
        gaps = [seg["relative_gap"] for seg in manifest["segments"]]
        # five iterations are far from optimal, and the certificate says so
        assert manifest["convergence"]["worst_relative_gap"] == max(gaps) > 1e-2
        warned = [r.getMessage() for r in caplog.records if r.name == "ksvar"]
        assert len(warned) == len(gaps)
        for seg, message in zip(manifest["segments"], warned):
            assert f"(relative duality gap {seg['relative_gap']:.2g})" in message
            lines = (out / seg["name"] / "diagnostics.ndjson").read_text().splitlines()
            records = [json.loads(line) for line in lines]
            assert records[-1]["relative_gap"] == seg["relative_gap"]
            assert [r["iteration"] for r in records[:-1] if "relative_gap" in r] == [5]

        manifest = run_pipeline(
            base_config(inp, tmp_path / "ridge", window_s=2.0, regularizer="squared")
        )
        assert manifest["convergence"]["worst_relative_gap"] == 0.0
        assert all(seg["relative_gap"] == 0.0 for seg in manifest["segments"])


    @pytest.mark.parametrize("grid, chosen", [((1.0, 100.0), 1.0), ((0.01, 100.0), 100.0)])
    def test_cv_choice_at_grid_edge_is_reported(self, tmp_path, caplog, grid, chosen):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=30, n=6)
        out = tmp_path / "run"
        plain = tmp_path / "plain"
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(
                base_config(inp, out, lam=None, lambda_grid=grid, cv_folds=3)
            )
        assert manifest["segments"][0]["lambda"] == chosen
        assert manifest["warnings"] == {"lambda_at_grid_edge": ["seg_000"]}
        warned = [r for r in caplog.records if "edge of the grid" in r.getMessage()]
        assert len(warned) == 1
        assert warned[0].levelno == logging.WARNING
        assert "seg_000" in warned[0].getMessage()
        # only the manifest records the warning; the same fit at the chosen
        # lambda writes the same bytes everywhere else
        run_pipeline(base_config(inp, plain, lam=chosen))
        a, b = tree_bytes(out), tree_bytes(plain)
        assert set(a) == set(b) | {"seg_000/cv.json"}
        for rel in b:
            if rel != "manifest.json":
                assert a[rel] == b[rel], rel

    @pytest.mark.parametrize("grid", [(0.01, 1.0, 100.0), (1.0,)])
    def test_cv_choice_inside_grid_is_silent(self, tmp_path, caplog, grid):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=30, n=6)
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(
                base_config(inp, tmp_path / "run", lam=None, lambda_grid=grid, cv_folds=3)
            )
        assert manifest["segments"][0]["lambda"] == 1.0
        assert manifest["warnings"] == {"lambda_at_grid_edge": []}
        assert not [r for r in caplog.records if r.name == "ksvar"]


class TestAtomicWrites:
    def test_failed_json_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        _write_json(str(path), {"ok": 1})
        before = path.read_bytes()
        # json.dump streams, so the first key is written before the failure
        with pytest.raises(TypeError):
            _write_json(str(path), {"ok": 2, "bad": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_fresh_writes_leave_nothing(self, tmp_path):
        with pytest.raises(TypeError):
            _write_json(str(tmp_path / "a.json"), {"ok": 1, "bad": object()})
        with pytest.raises(TypeError):
            _write_ndjson(str(tmp_path / "b.ndjson"), [{"ok": 1}, {"bad": object()}])
        assert os.listdir(tmp_path) == []


class TestAggregation:
    def net(self, weights, tau=0.1, labels=("a", "b")):
        weights = np.asarray(weights, float)
        supports = (weights >= tau) & (weights > 0)
        return EffectiveNetwork(
            supports=supports, weights=weights, tau_alpha=tau, node_labels=labels
        )

    def test_union_keeps_any_and_takes_max_weight(self):
        a = self.net([[[0.0, 0.5], [0.0, 0.0]]])
        b = self.net([[[0.0, 0.2], [0.3, 0.0]]])
        agg = aggregate_networks([a, b], "union", 0.1)
        assert agg.supports[0, 0, 1] and agg.supports[0, 1, 0]
        assert agg.weights[0, 0, 1] == 0.5
        assert agg.weights[0, 1, 0] == 0.3

    def test_majority_needs_strictly_more_than_half(self):
        a = self.net([[[0.0, 0.5], [0.4, 0.0]]])
        b = self.net([[[0.0, 0.2], [0.0, 0.0]]])
        c = self.net([[[0.0, 0.0], [0.0, 0.0]]])
        agg = aggregate_networks([a, b, c], "majority", 0.1)
        assert agg.supports[0, 0, 1]  # in 2 of 3
        assert not agg.supports[0, 1, 0]  # in 1 of 3
        assert agg.weights[0, 1, 0] == 0.0  # zeroed outside the majority
        assert agg.weights[0, 0, 1] == 0.5

    def test_even_split_is_not_a_majority(self):
        a = self.net([[[0.0, 0.5], [0.0, 0.0]]])
        b = self.net([[[0.0, 0.0], [0.0, 0.0]]])
        agg = aggregate_networks([a, b], "majority", 0.1)
        assert not agg.supports.any()

    def test_lag_padding(self):
        short = self.net([[[0.0, 0.5], [0.0, 0.0]]])  # lag 0 only
        long = self.net(
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.7], [0.0, 0.0]]]
        )  # lag 1
        agg = aggregate_networks([short, long], "union", 0.1)
        assert agg.lag == 1
        assert agg.supports[0, 0, 1] and agg.supports[1, 0, 1]

    def test_aggregate_round_trips_exactly(self, tmp_path):
        a = self.net([[[0.0, 0.5], [0.05, 0.0]]])
        b = self.net([[[0.0, 0.2], [0.3, 0.0]]])
        for rule in ("union", "majority"):
            agg = aggregate_networks([a, b], rule, 0.1)
            path = tmp_path / f"{rule}.json"
            save_network(agg, str(path))
            back = load_network(str(path))
            np.testing.assert_array_equal(back.supports, agg.supports)
            np.testing.assert_array_equal(back.weights, agg.weights)

    def test_bad_rule_and_empty_list(self):
        a = self.net([[[0.0, 0.5], [0.0, 0.0]]])
        with pytest.raises(ConfigError):
            aggregate_networks([a], "intersection", 0.1)
        with pytest.raises(ConfigError):
            aggregate_networks([], "union", 0.1)

    def test_pipeline_writes_aggregate(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=100, rate=10.0)
        out = tmp_path / "run"
        run_pipeline(base_config(inp, out, window_s=2.0, aggregate="union"))
        data = json.loads((out / "aggregate.json").read_text())
        assert data["rule"] == "union"
        assert data["n_segments"] == 5
        load_network(str(out / "aggregate.json"))


class TestCompareRuns:
    def run_once(self, tmp_path, name, **kwargs):
        inp = tmp_path / "panel.csv"
        if not inp.exists():
            write_panel_csv(inp)
        out = tmp_path / name
        run_pipeline(base_config(inp, out, **kwargs))
        return out

    def test_identical_runs_have_zero_deltas(self, tmp_path):
        a = self.run_once(tmp_path, "a")
        b = self.run_once(tmp_path, "b")
        result = compare_runs(str(a), str(b))
        for metric in PER_NODE_METRICS:
            assert all(d == 0.0 for d in result["per_node"][metric]["delta"])
        for row in result["global"]:
            assert row["delta"] == 0.0
        assert set(result["per_node"]) == set(PER_NODE_METRICS)
        assert [r["metric"] for r in result["global"]] == list(GLOBAL_METRICS)

    def test_empty_baseline_deltas_equal_run_metrics(self, tmp_path):
        # huge threshold empties run A, so delta is exactly run B's table
        a = self.run_once(tmp_path, "empty", tau_alpha=1e9)
        b = self.run_once(tmp_path, "full")
        result = compare_runs(str(a), str(b))
        for row in result["global"]:
            if row["metric"] == "connected_component_count":
                continue  # empty graph has N singleton components, not 0
            if row["metric"] == "largest_component_size":
                continue
            assert row["delta"] == pytest.approx(row["b"] - row["a"])
        density = next(r for r in result["global"] if r["metric"] == "density")
        assert density["a"] == 0.0
        assert density["delta"] == density["b"]

    def test_label_mismatch_rejected(self, tmp_path):
        a = self.run_once(tmp_path, "a2")
        other_inp = tmp_path / "panel5.csv"
        write_panel_csv(other_inp, n=5, seed=9)
        out = tmp_path / "b5"
        run_pipeline(base_config(other_inp, out))
        with pytest.raises(LabelMismatch):
            compare_runs(str(a), str(out))

    def test_unfinished_run_rejected(self, tmp_path):
        a = self.run_once(tmp_path, "a3")
        empty = tmp_path / "not_a_run"
        empty.mkdir()
        with pytest.raises(ConfigError):
            compare_runs(str(a), str(empty))

    @pytest.mark.parametrize(
        "manifest",
        [{}, [], {"segments": None}, {"segments": [{}]}, {"segments": [{"name": 3}]}],
    )
    def test_malformed_manifest_rejected(self, tmp_path, manifest):
        a = self.run_once(tmp_path, "a4")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError):
            compare_runs(str(a), str(bad))

    def test_missing_segment_report_rejected(self, tmp_path):
        a = self.run_once(tmp_path, "a5")
        (a / "seg_000" / "metrics.json").unlink()
        with pytest.raises(ConfigError, match="seg_000"):
            compare_runs(str(self.run_once(tmp_path, "b5")), str(a))


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(cli_main, list(args))

    def test_synth_then_infer_then_metrics_then_compare(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        truth_path = tmp_path / "truth.json"
        edges_path = tmp_path / "true_edges.json"
        res = self.invoke(
            "synth",
            "-o", str(csv_path),
            "--truth", str(truth_path),
            "--edges", str(edges_path),
            "--nodes", "3",
            "--samples", "60",
            "--density", "0.3",
            "--seed", "1",
        )
        assert res.exit_code == 0, res.output
        assert csv_path.exists() and truth_path.exists() and edges_path.exists()
        truth = json.loads(truth_path.read_text())
        assert truth["coupling"] == "linear"
        assert len(truth["permutation"]) == 3

        out_a = tmp_path / "runA"
        res = self.invoke(
            "infer",
            "-i", str(csv_path),
            "-o", str(out_a),
            "--lag", "1",
            "--kernel", "linear",
            "--lam", "0.5",
        )
        assert res.exit_code == 0, res.output
        assert "1 segment(s)" in res.output

        report_path = tmp_path / "report.json"
        res = self.invoke(
            "metrics", str(out_a / "seg_000" / "edges.json"),
            "-o", str(report_path),
            "--csv", str(tmp_path / "report.csv"),
        )
        assert res.exit_code == 0, res.output
        report = json.loads(report_path.read_text())
        assert "global" in report and "nodes" in report

        out_b = tmp_path / "runB"
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out_b),
            "--lag", "1", "--kernel", "linear", "--lam", "2.0",
        )
        assert res.exit_code == 0
        cmp_path = tmp_path / "cmp.json"
        res = self.invoke("compare", str(out_a), str(out_b), "-o", str(cmp_path))
        assert res.exit_code == 0, res.output
        assert "density" in res.output
        assert json.loads(cmp_path.read_text())["n_segments"] == {"a": 1, "b": 1}

    def test_infer_reports_convergence_tally(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        out = tmp_path / "run"
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out),
            "--lag", "1", "--kernel", "linear", "--lam", "0.5", "--max-iter", "1",
        )
        assert res.exit_code == 0, res.output
        assert f"wrote 1 segment(s) to {out}, 0 of 1 converged" in res.output
        manifest = json.loads((out / "manifest.json").read_text())
        worst = manifest["convergence"]["worst_relative_gap"]
        assert f"worst relative duality gap {worst:.2g}" in res.output

    def test_metrics_to_stdout(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        self.invoke(
            "synth", "-o", str(csv_path), "--nodes", "3", "--samples", "50",
            "--density", "0.3", "--edges", str(tmp_path / "e.json"),
        )
        res = self.invoke("metrics", str(tmp_path / "e.json"))
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert set(payload["global"]) == set(GLOBAL_METRICS)

    def test_cv_command(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        self.invoke(
            "synth", "-o", str(csv_path), "--nodes", "3", "--samples", "60",
            "--density", "0.3",
        )
        table_path = tmp_path / "cv.json"
        res = self.invoke(
            "cv", "-i", str(csv_path), "--grid", "0.1,1.0", "--folds", "3",
            "--lag", "1", "-o", str(table_path),
        )
        assert res.exit_code == 0, res.output
        assert "chosen lambda:" in res.output
        table = json.loads(table_path.read_text())
        assert table["chosen_lambda"] in (0.1, 1.0)
        assert len(table["table"]) == 2

    @pytest.mark.parametrize(
        "grid, chosen, at_edge", [("1.0,100.0", 1.0, True), ("0.01,1.0,100.0", 1.0, False)]
    )
    def test_cv_command_warns_at_grid_edge(self, tmp_path, caplog, grid, chosen, at_edge):
        csv_path = tmp_path / "panel.csv"
        write_panel_csv(csv_path, t=30, n=6)
        table_path = tmp_path / "cv.json"
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            res = self.invoke(
                "cv", "-i", str(csv_path), "--grid", grid, "--folds", "3",
                "--lag", "1", "-o", str(table_path),
            )
        assert res.exit_code == 0, res.output
        assert json.loads(table_path.read_text())["chosen_lambda"] == chosen
        warned = [r for r in caplog.records if r.name == "ksvar"]
        if at_edge:
            assert len(warned) == 1
            assert warned[0].levelno == logging.WARNING
            assert "edge of the grid" in warned[0].getMessage()
        else:
            assert not warned

    def test_infer_rejects_both_lambda_forms(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(tmp_path / "out"),
            "--lag", "1", "--kernel", "linear",
            "--lam", "0.5", "--lambda-grid", "0.1,1.0",
        )
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ConfigError")

    def test_infer_missing_input_fails_cleanly(self, tmp_path):
        res = self.invoke(
            "infer", "-i", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "out"),
            "--lag", "1", "--kernel", "linear", "--lam", "0.5",
        )
        assert res.exit_code == 1
        assert res.stderr.startswith("error:")

    def test_infer_config_file_with_flag_override(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "input_path": str(csv_path),
                    "output_dir": str(tmp_path / "cfg_out"),
                    "lag": 1,
                    "kernel": "linear",
                    "lam": 0.5,
                }
            )
        )
        out = tmp_path / "flag_out"
        res = self.invoke("infer", "-c", str(cfg_path), "-o", str(out), "--lam", "1.5")
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lam"] == 1.5
        assert manifest["config"]["output_dir"] == str(out)

    def test_infer_options_are_the_config_fields(self):
        # each option is stored under the field it sets; none is mapped by hand
        dests = {param.name for param in cli_main.commands["infer"].params}
        assert dests - {"config_path"} == {f.name for f in fields(PipelineConfig)}

    def test_infer_flags_reach_their_fields(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path, t=100, rate=10.0)
        out = tmp_path / "out"
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out), "--rate", "5",
            "--window", "10", "--overlap", "5", "--bic-candidates", "1,2",
            "--kernel", "linear", "--lambda-grid", "0.1,1", "--folds", "3",
            "--no-standardize", "--seed", "2",
        )
        assert res.exit_code == 0, res.output
        config = json.loads((out / "manifest.json").read_text())["config"]
        expected = {
            "sample_rate_hz": 5.0,
            "window_s": 10.0,
            "overlap_s": 5.0,
            "lag": None,
            "bic_candidates": [1, 2],
            "dictionary": None,
            "lambda_grid": [0.1, 1.0],
            "cv_folds": 3,
            "standardize": False,
            "seed": 2,
        }
        assert {key: config[key] for key in expected} == expected
        assert "workers" not in config and "jitter" not in config

    def test_infer_bad_sidecar_fails_cleanly(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        (tmp_path / "sim.csv.json").write_text('{"sample_rate_hz": "fast"}')
        out = tmp_path / "out"
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out),
            "--lag", "1", "--kernel", "linear", "--lam", "0.5",
        )
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ConfigError")
        assert json.loads((out / "error.json").read_text())["stage"] == "read input"

    def test_synth_rejects_bad_density(self, tmp_path):
        res = self.invoke(
            "synth", "-o", str(tmp_path / "x.csv"), "--nodes", "3",
            "--samples", "50", "--density", "1.5",
        )
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ConfigError")

    def test_dictionary_flags_repeat(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        out = tmp_path / "out"
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out), "--lag", "1",
            "--dictionary", "linear", "--dictionary", "poly:d=2,c=0",
            "--lam", "0.5",
        )
        assert res.exit_code == 0, res.output
        assert (out / "seg_000" / "attribution.csv").exists()

    def test_csv_round_trip_through_cli_synth(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        res = self.invoke(
            "synth", "-o", str(csv_path), "--nodes", "4", "--samples", "80",
            "--density", "0.2", "--rate", "125.0", "--seed", "3",
        )
        assert res.exit_code == 0
        panel = read_csv_panel(str(csv_path))
        assert panel.values.shape == (80, 4)
        assert panel.sample_rate_hz == 125.0
