"""Pipeline config, artifacts, determinism, aggregation, comparison, CLI."""

import json
import logging
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from click.testing import CliRunner

from ksvar.cli import main as cli_main
from ksvar.errors import (
    ConfigError,
    ConstantColumn,
    InsufficientSamples,
    LabelMismatch,
    SingularSystem,
    WindowTooLong,
)
from ksvar.panel import NoiseModel, TimeSeriesPanel, read_csv_panel, write_csv_panel
from ksvar.pipeline import (
    GLOBAL_METRICS,
    PER_NODE_METRICS,
    SEGMENT_STAGES,
    PipelineConfig,
    _network_payload,
    _pin_blas_to_one_thread,
    _write_json,
    _write_ndjson,
    _write_network,
    aggregate_networks,
    compare_runs,
    load_network,
    run_pipeline,
    save_network,
)
from ksvar import pipeline, solver
from ksvar.solver import EffectiveNetwork
from ksvar.synth import SynthConfig, generate_truth, simulate

from oracles import network_edges


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


def write_wide_panel_csv(path, t=52, n=20, seed=0):
    """Gaussian noise on ``n`` nodes: 13-sample windows give T'=12 < R/2 = n
    under a lag-1 linear kernel, a fit for the exact lasso path."""
    values = np.random.default_rng(seed).normal(size=(t, n))
    labels = tuple(f"n{i}" for i in range(n))
    panel = TimeSeriesPanel(values=values, node_labels=labels, sample_rate_hz=1.0)
    write_csv_panel(panel, str(path))


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


_PROCESS_SEGMENT = pipeline._process_segment


def _dies_once_at_segment_1(marker, idx, *args):
    # stands in for pipeline._process_segment in a pool worker: the first
    # worker handed segment 1 leaves the marker and dies
    if idx == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return _PROCESS_SEGMENT(idx, *args)


def _dies_at_segment_1(idx, *args):
    if idx == 1:
        os._exit(1)
    return _PROCESS_SEGMENT(idx, *args)


def _writes_segment_1_then_dies(marker, idx, *args):
    # segment 1's worker writes the whole segment, then a stray temp file, as
    # a worker terminated inside _atomic_open leaves one, and dies before
    # reporting; with a marker path, only the first time
    if idx != 1 or (marker is not None and os.path.exists(marker)):
        return _PROCESS_SEGMENT(idx, *args)
    if marker is not None:
        open(marker, "w").close()
    _PROCESS_SEGMENT(idx, *args)
    seg_dir = os.path.join(args[-1], "seg_001")
    open(os.path.join(seg_dir, f"diagnostics.ndjson.{os.getpid()}.tmp"), "w").close()
    os._exit(1)


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
        removed_keys = ({"workers": 1}, {"jitter": 1e-10}, {"tol_primal": 1e-5}, {"tol_dual": 1e-5})
        for removed in removed_keys:
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

    def test_edges_are_every_nonzero_weight_in_loop_order(self, tmp_path):
        rng = np.random.default_rng(3)
        weights = np.where(rng.random((3, 7, 7)) < 0.4, rng.random((3, 7, 7)), 0.0)
        weights[0, 1, 2], weights[2, 6, 0] = -0.0, 5e-324
        net = EffectiveNetwork(supports=weights >= 0.5, weights=weights, tau_alpha=0.5)
        path = tmp_path / "edges.json"
        save_network(net, str(path))
        assert json.loads(path.read_text())["edges"] == network_edges(net)

    def test_file_is_what_json_dump_writes(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "edges.json"
        cases = [
            (np.zeros((2, 3, 3)), None),  # no edges
            (np.array([[[0.0, 5e-324], [0.1, 1e16]]]), ('say "hi"', "back\\slash")),
        ]
        for n in (1, 4, 9):
            w = np.where(rng.random((2, n, n)) < 0.5, rng.random((2, n, n)), 0.0)
            cases.append((w, tuple(f"n\u00e9\u2603\U0001f9e0{i}\"\\" for i in range(n))))
        for weights, labels in cases:
            net = EffectiveNetwork(
                supports=weights >= 0.3, weights=weights, tau_alpha=0.3, node_labels=labels
            )
            payload = _network_payload(net)
            save_network(net, str(path))
            assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()
            # aggregate.json carries keys after the edges
            payload.update(rule="union", n_segments=3)
            _write_network(str(path), payload)
            assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()

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
            {**good, "weight": float("nan")},
            {**good, "weight": float("inf")},
            {**good, "weight": -0.5},
            {key: v for key, v in good.items() if key != "weight"},
            [0, 1, 1, 0.5],
        ]
        header = {"nodes": ["a", "b", "c"], "lags": 1, "tau_alpha": 0.1}
        for edge in bad_edges:
            path.write_text(json.dumps({**header, "edges": [good, edge]}))
            with pytest.raises(ConfigError):
                load_network(str(path))
        for bad_header in (
            {"lags": 1.7},
            {"lags": "1"},
            {"tau_alpha": "0.1"},
            {"tau_alpha": float("nan")},
            {"tau_alpha": -0.1},
            {"nodes": ["a", "a", "c"]},  # a report keyed by label would merge them
        ):
            path.write_text(json.dumps({**header, **bad_header, "edges": [good]}))
            with pytest.raises(ConfigError):
                load_network(str(path))
        for bad_header in (
            {"lags": -1},
            {"nodes": []},  # ksvar never writes a network without nodes
            {"tau_alpha": float("inf")},  # written as Infinity
        ):
            path.write_text(json.dumps({**header, **bad_header, "edges": []}))
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
        summary, checks = records[-1], records[:-1]
        assert summary["summary"] is True
        # a gap-stopped fit: one record per certificate, every 10th iteration and the last
        assert all(set(r) == {"iteration", "relative_gap"} for r in checks)
        iterations = [r["iteration"] for r in checks]
        assert iterations == sorted({*range(10, summary["iterations"] + 1, 10), summary["iterations"]})
        assert summary["relative_gap"] == checks[-1]["relative_gap"]

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
        a = self.serial_and_pooled(tmp_path, monkeypatch, inp, kwargs)
        assert len([rel for rel in a if rel.endswith("attribution.csv")]) == 5

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
    )
    def test_pool_writes_the_serial_bytes_on_the_lasso_path(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_wide_panel_csv(inp)
        kwargs = dict(window_s=13.0, lam=0.2, aggregate="majority")
        self.serial_and_pooled(tmp_path, monkeypatch, inp, kwargs)
        for run in ("serial", "pool"):
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            assert manifest["n_segments"] == 4
            assert all(s["solver"] == "path" and s["converged"] for s in manifest["segments"])

    @staticmethod
    def serial_and_pooled(tmp_path, monkeypatch, inp, kwargs):
        """Run ``kwargs`` serially and in a pool of two; the artifacts other
        than the manifest must match byte for byte.  Returns them."""
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
        for rel in a:
            if rel != "manifest.json":
                assert a[rel] == b[rel], rel
        return a

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
    )
    def test_killed_worker_costs_only_a_refit(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=80)
        # the serial reference, with one BLAS thread like the pooled fits
        monkeypatch.setattr(pipeline, "_pool_size", lambda n: 1)
        child = multiprocessing.get_context("fork").Process(
            target=_run_with_one_blas_thread,
            args=(base_config(inp, tmp_path / "serial", window_s=20.0),),
        )
        child.start()
        child.join(timeout=120)
        assert not child.is_alive() and child.exitcode == 0
        monkeypatch.setattr(pipeline, "_pool_size", lambda n: 2)
        marker = tmp_path / "died"
        monkeypatch.setattr(
            pipeline, "_process_segment", partial(_dies_once_at_segment_1, str(marker))
        )
        manifest = run_pipeline(base_config(inp, tmp_path / "pool", window_s=20.0))
        assert marker.exists() and manifest["workers"] == 2 and manifest["n_segments"] == 4
        assert multiprocessing.active_children() == []
        a, b = tree_bytes(tmp_path / "serial"), tree_bytes(tmp_path / "pool")
        assert set(a) == set(b)
        for rel in a:
            if rel != "manifest.json":
                assert a[rel] == b[rel], rel

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
    )
    def test_worker_that_always_dies_fails_the_run(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=80)
        out = tmp_path / "run"
        monkeypatch.setattr(pipeline, "_pool_size", lambda n: 2)
        monkeypatch.setattr(pipeline, "_process_segment", _dies_at_segment_1)
        with pytest.raises(BrokenProcessPool):
            run_pipeline(base_config(inp, out, window_s=20.0))
        assert multiprocessing.active_children() == []
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "BrokenProcessPool" and err["stage"] == "fit segments"
        written = sorted(p.parent.name for p in out.glob("seg_*/metrics.json"))
        assert "seg_001" not in written
        assert err["completed_segments"] == written
        assert not (out / "manifest.json").exists()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
    )
    def test_refit_starts_from_an_empty_segment_directory(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=80)
        out = tmp_path / "run"
        marker = tmp_path / "died"
        monkeypatch.setattr(pipeline, "_pool_size", lambda n: 2)
        monkeypatch.setattr(
            pipeline, "_process_segment", partial(_writes_segment_1_then_dies, str(marker))
        )
        manifest = run_pipeline(base_config(inp, out, window_s=20.0))
        assert marker.exists() and manifest["n_segments"] == 4
        assert sorted(os.listdir(out / "seg_001")) == [
            "diagnostics.ndjson", "edges.json", "metrics.csv", "metrics.json"
        ]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
    )
    def test_broken_pool_leaves_no_unreported_segment(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=80)
        out = tmp_path / "run"
        monkeypatch.setattr(pipeline, "_pool_size", lambda n: 2)
        monkeypatch.setattr(
            pipeline, "_process_segment", partial(_writes_segment_1_then_dies, None)
        )
        with pytest.raises(BrokenProcessPool):
            run_pipeline(base_config(inp, out, window_s=20.0))
        err = json.loads((out / "error.json").read_text())
        # segment 1 was written in full but never reported: it is gone
        assert not (out / "seg_001").exists()
        assert err["completed_segments"] == sorted(p.name for p in out.glob("seg_*"))
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_fit_leaves_no_segment_directory(self, tmp_path, monkeypatch, workers):
        if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the pool needs fork")
        values = np.random.default_rng(0).normal(size=(60, 4))
        values[20:40, 3] = values[20:40, 0]  # window 1 holds node a twice
        inp = tmp_path / "panel.csv"
        write_csv_panel(
            TimeSeriesPanel(values=values, node_labels=("a", "b", "c", "d"), sample_rate_hz=1.0),
            str(inp),
        )
        out = tmp_path / "run"
        monkeypatch.setattr(pipeline, "_pool_size", lambda n: workers)
        # a zero ridge penalty on a factor without full column rank is singular
        cfg = base_config(inp, out, window_s=20.0, regularizer="squared", lam=0.0)
        with pytest.raises(SingularSystem):
            run_pipeline(cfg)
        assert multiprocessing.active_children() == []
        err = json.loads((out / "error.json").read_text())
        assert (err["error"], err["stage"]) == ("SingularSystem", "fit segments")
        assert "seg_001" not in err["completed_segments"]
        assert sorted(p.name for p in out.glob("seg_*")) == err["completed_segments"]
        if workers == 1:
            assert err["completed_segments"] == ["seg_000"]

    def test_failed_write_leaves_no_segment_directory(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=40)
        out = tmp_path / "run"

        def full_disk(net, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pipeline, "save_network", full_disk)
        with pytest.raises(OSError):
            run_pipeline(base_config(inp, out))
        err = json.loads((out / "error.json").read_text())
        assert err["completed_segments"] == [] and not list(out.glob("seg_*"))

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

    def test_failed_rerun_leaves_only_its_own_record(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out = tmp_path / "run"
        assert run_pipeline(base_config(inp, out, window_s=20.0))["n_segments"] == 3
        with pytest.raises(WindowTooLong):
            run_pipeline(base_config(inp, out, window_s=500.0))
        assert not (out / "manifest.json").exists()
        assert json.loads((out / "error.json").read_text())["error"] == "WindowTooLong"
        with pytest.raises(ConfigError, match="no manifest.json"):
            compare_runs(str(out), str(out))
        with pytest.raises(FileNotFoundError):
            run_pipeline(base_config(tmp_path / "missing.csv", out))
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["stage"]) == ("FileNotFoundError", "read input")

    def test_non_convergence_is_reported(self, tmp_path, caplog):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=100, rate=10.0)
        names = [f"seg_{i:03d}" for i in range(5)]
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(
                base_config(inp, tmp_path / "capped", window_s=2.0, max_iter=1)
            )
        tally = manifest["convergence"]
        assert tally.pop("worst_relative_gap") > 1e-2
        assert tally == {
            "converged": 0,
            "segments": 5,
            "not_converged": names,
        }
        assert all("residual_ratio" not in seg for seg in manifest["segments"])
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
            "worst_relative_gap": 0.0,
        }
        assert not [r for r in caplog.records if r.name == "ksvar"]

    def test_gap_stop_and_rho_are_reported(self, tmp_path, caplog):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        out = tmp_path / "run"
        # only the duality gap stops a pipeline fit
        cfg = base_config(inp, out, max_iter=2000)
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(cfg)
        [seg] = manifest["segments"]
        assert seg["rho"] == 10.0 * cfg.lam
        assert seg["converged"] and seg["relative_gap"] <= 1e-3
        assert seg["iterations"] % 10 == 0 and seg["iterations"] < cfg.max_iter
        tally = manifest["convergence"]
        assert (tally["converged"], tally["not_converged"]) == (1, [])
        assert tally["worst_relative_gap"] == seg["relative_gap"]
        assert not [r for r in caplog.records if r.name == "ksvar"]
        lines = (out / "seg_000" / "diagnostics.ndjson").read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["converged"] is True and summary["iterations"] == seg["iterations"]
        assert summary["relative_gap"] == seg["relative_gap"]
        # an explicit rho is used as given; a ridge fit has none
        manifest = run_pipeline(base_config(inp, tmp_path / "pinned", rho=2.0))
        assert manifest["segments"][0]["rho"] == 2.0
        manifest = run_pipeline(base_config(inp, tmp_path / "ridge", regularizer="squared"))
        assert manifest["segments"][0]["rho"] is None

    def test_column_iterations_are_recorded_in_the_manifest_only(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp, t=120, n=6)
        seen = []
        admm_fit = solver.admm_fit

        def recording(*args):
            out = admm_fit(*args)
            seen.append(out[2])
            return out

        # solver.fit, which the pipeline calls, looks admm_fit up in its module
        monkeypatch.setattr(solver, "admm_fit", recording)
        out = tmp_path / "run"
        # each column stops on its own gap
        manifest = run_pipeline(base_config(inp, out))
        [seg], [diag] = manifest["segments"], seen
        assert seg["column_iterations"] == diag.column_iterations
        assert seg["iterations"] <= seg["column_iterations"] < 6 * seg["iterations"]
        assert "column_iterations" not in (out / "seg_000" / "diagnostics.ndjson").read_text()
        ridge = run_pipeline(base_config(inp, tmp_path / "ridge", regularizer="squared"))
        assert ridge["segments"][0]["column_iterations"] == 6

    def test_acceleration_is_recorded_in_the_manifest_only(self, tmp_path, monkeypatch):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        plain = run_pipeline(base_config(inp, tmp_path / "plain"))
        ridge = run_pipeline(base_config(inp, tmp_path / "ridge", regularizer="squared"))
        for run in (plain, ridge):
            assert run["segments"][0]["accelerated"] is False
            assert run["segments"][0]["single_iterations"] == 0
        # a threshold of 0 accelerates every fit, as a large window would be,
        # and runs its products in float32
        monkeypatch.setattr(solver, "_ANDERSON_WORK", 0)
        out = tmp_path / "accelerated"
        manifest = run_pipeline(base_config(inp, out))
        [seg] = manifest["segments"]
        assert seg["accelerated"] is True and seg["converged"]
        assert seg["single_iterations"] == seg["iterations"] > 0
        for run in (tmp_path / "plain", out):
            text = (run / "seg_000" / "diagnostics.ndjson").read_text()
            assert "accelerated" not in text and "single_iterations" not in text

    def test_wide_linear_windows_take_the_lasso_path(self, tmp_path, caplog):
        # a 76-node recording cut into 25-sample windows, as in criterion 10
        cfg = SynthConfig(
            n_nodes=76, n_samples=100, lag=1, edge_density=0.05,
            noise=NoiseModel(variance=1.0), seed=3, sample_rate_hz=50.0,
        )
        inp = tmp_path / "panel.csv"
        write_csv_panel(simulate(generate_truth(cfg), cfg), str(inp))
        out = tmp_path / "run"
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(
                base_config(inp, out, window_s=0.5, lam=0.1, tau_alpha=0.05, max_iter=300)
            )
        assert not [r for r in caplog.records if r.name == "ksvar"]
        assert manifest["convergence"]["converged"] == manifest["n_segments"] == 4
        assert manifest["convergence"]["worst_relative_gap"] <= 1e-10
        for seg in manifest["segments"]:
            assert (seg["solver"], seg["rho"]) == ("path", None)
            assert seg["iterations"] < seg["column_iterations"] <= 76 * seg["iterations"]
            # no residual trace: the summary line alone, as for a ridge fit
            [line] = (out / seg["name"] / "diagnostics.ndjson").read_text().splitlines()
            summary = json.loads(line)
            assert summary["iterations"] == seg["iterations"] and summary["converged"]
            assert summary["relative_gap"] == seg["relative_gap"]

    def test_capped_lasso_path_reports_non_convergence(self, tmp_path, caplog):
        inp = tmp_path / "panel.csv"
        write_wide_panel_csv(inp)
        with caplog.at_level(logging.WARNING, logger="ksvar"):
            manifest = run_pipeline(
                base_config(inp, tmp_path / "run", window_s=13.0, lam=0.2, max_iter=1)
            )
        segs = manifest["segments"]
        assert [s["solver"] for s in segs] == ["path"] * 4
        assert all(s["iterations"] == 1 and s["relative_gap"] > 1e-2 for s in segs)
        assert manifest["convergence"]["not_converged"] == [s["name"] for s in segs]
        warned = [r.getMessage() for r in caplog.records if r.name == "ksvar"]
        assert len(warned) == 4 and all("without converging" in m for m in warned)

    def test_each_segment_names_its_solver(self, tmp_path):
        inp = tmp_path / "panel.csv"
        write_panel_csv(inp)
        for regularizer, solver_name in (("group_l1", "admm"), ("squared", "ridge")):
            manifest = run_pipeline(
                base_config(inp, tmp_path / regularizer, regularizer=regularizer)
            )
            assert manifest["segments"][0]["solver"] == solver_name

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

    @pytest.mark.parametrize(
        "damage",
        [
            lambda rep: [1],
            lambda rep: rep["global"].pop("diameter"),
            lambda rep: rep.pop("global"),
            lambda rep: rep["nodes"].pop(next(iter(rep["nodes"]))),
            lambda rep: rep["nodes"][next(iter(rep["nodes"]))].update(closeness=None),
            lambda rep: rep.update(nodes=[]),
        ],
        ids=["list", "no-diameter", "no-global", "missing-node", "null-metric", "nodes-list"],
    )
    def test_malformed_segment_report_rejected(self, tmp_path, damage):
        # the second of two segments, so a missing node is not a label mismatch
        a = self.run_once(tmp_path, "a6", window_s=30.0)
        b = self.run_once(tmp_path, "b6", window_s=30.0)
        path = b / "seg_001" / "metrics.json"
        report = json.loads(path.read_text())
        damaged = damage(report)
        path.write_text(json.dumps(damaged if isinstance(damaged, list) else report))
        with pytest.raises(ConfigError, match="seg_001"):
            compare_runs(str(a), str(b))
        with pytest.raises(ConfigError, match="seg_001"):
            compare_runs(str(b), str(a))


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(cli_main, list(args))

    def test_import_loads_no_scipy(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = "import sys, ksvar, ksvar.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("damage", ["no-diameter", "list"])
    def test_compare_malformed_report_fails_cleanly(self, tmp_path, damage):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        runs = []
        for name in ("a", "b"):
            res = self.invoke(
                "infer", "-i", str(csv_path), "-o", str(tmp_path / name),
                "--lag", "1", "--kernel", "linear", "--lam", "0.5",
            )
            assert res.exit_code == 0, res.output
            runs.append(str(tmp_path / name))
        path = tmp_path / "b" / "seg_000" / "metrics.json"
        report = json.loads(path.read_text())
        del report["global"]["diameter"]
        path.write_text(json.dumps({"no-diameter": report, "list": [1]}[damage]))
        res = self.invoke("compare", *runs)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: ConfigError: {path} is not a metrics report")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["infer", "metrics", "compare"])
    def test_non_utf8_json_fails_cleanly(self, tmp_path, command):
        # the byte 0xff starts no UTF-8 sequence, so json.load raises
        # UnicodeDecodeError before it parses anything
        bad = b'{"\xff": 1}'
        if command == "infer":
            (tmp_path / "cfg.json").write_bytes(bad)
            args = ["infer", "-c", str(tmp_path / "cfg.json"), "-o", str(tmp_path / "out")]
        elif command == "metrics":
            (tmp_path / "edges.json").write_bytes(bad)
            args = ["metrics", str(tmp_path / "edges.json")]
        else:
            for name in ("a", "b"):
                (tmp_path / name).mkdir()
                (tmp_path / name / "manifest.json").write_bytes(bad)
            args = ["compare", str(tmp_path / "a"), str(tmp_path / "b")]
        res = self.invoke(*args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        [line] = res.stderr.splitlines()
        assert line.startswith("error: UnicodeDecodeError: ")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["infer", "cv"])
    def test_non_utf8_csv_fails_cleanly(self, tmp_path, command):
        csv_path = tmp_path / "panel.csv"
        csv_path.write_bytes(b"a,\xffb\n1.0,2.0\n3.0,4.0\n")
        args = ["-i", str(csv_path), "--lag", "1", "--rate", "1"]
        if command == "infer":
            args += ["-o", str(tmp_path / "out"), "--kernel", "linear", "--lam", "0.5"]
        else:
            args += ["--grid", "0.5,1"]
        res = self.invoke(command, *args)
        assert res.exit_code == 1
        [line] = res.stderr.splitlines()
        assert line.startswith(f"error: ConfigError: {csv_path} is not UTF-8 text")
        if command == "infer":
            record = json.loads((tmp_path / "out" / "error.json").read_text())
            assert (record["error"], record["stage"]) == ("ConfigError", "read input")

    def test_readme_library_example_runs(self, tmp_path, monkeypatch, capsys):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as handle:
            section = handle.read().split("## Library example", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        res = self.invoke(
            "synth", "-o", "panel.csv", "--nodes", "4", "--samples", "80", "--density", "0.3"
        )
        assert res.exit_code == 0, res.output
        exec(compile(code, "README.md", "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) == 4  # one adjacency row per node

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

    def test_infer_tally_counts_gap_stops(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        out = tmp_path / "run"
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out), "--lag", "1", "--kernel", "linear",
            "--lam", "0.5",
        )
        assert res.exit_code == 0, res.output
        assert f"wrote 1 segment(s) to {out}, 1 of 1 converged" in res.output
        [seg] = json.loads((out / "manifest.json").read_text())["segments"]
        assert seg["relative_gap"] <= 1e-3 and seg["rho"] == 5.0

    def test_removed_tolerance_flags_are_rejected(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        write_panel_csv(csv_path)
        for flag in ("--tol-primal", "--tol-dual"):
            res = self.invoke(
                "infer", "-i", str(csv_path), "-o", str(tmp_path / "run"), "--lag", "1",
                "--kernel", "linear", "--lam", "0.5", flag, "1e-5",
            )
            assert res.exit_code != 0 and "No such option" in res.output
        assert not (tmp_path / "run").exists()

    def test_rerun_removes_the_earlier_runs_artifacts(self, tmp_path):
        csv_path = tmp_path / "sim.csv"
        res = self.invoke(
            "synth", "-o", str(csv_path), "--nodes", "4", "--samples", "200", "--density", "0.3"
        )
        assert res.exit_code == 0, res.output
        out = tmp_path / "run"
        (out / "seg_notes").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out), "--lag", "1", "--window", "40",
            "--dictionary", "linear", "--dictionary", "gaussian:sigma=median",
            "--lambda-grid", "0.5,1,2", "--aggregate", "union",
        )
        assert res.exit_code == 0, res.output
        assert (out / "aggregate.json").exists() and (out / "seg_004" / "cv.json").exists()
        res = self.invoke(
            "infer", "-i", str(csv_path), "-o", str(out), "--lag", "1", "--window", "100",
            "--kernel", "linear", "--lam", "0.5",
        )
        assert res.exit_code == 0, res.output
        assert json.loads((out / "manifest.json").read_text())["n_segments"] == 2
        seg_files = ["diagnostics.ndjson", "edges.json", "metrics.csv", "metrics.json"]
        assert sorted(tree_bytes(out)) == sorted(
            ["manifest.json", "notes.txt"]
            + [f"{seg}/{name}" for seg in ("seg_000", "seg_001") for name in seg_files]
        )
        assert (out / "notes.txt").read_text() == "kept\n"
        assert (out / "seg_notes").is_dir()

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

    def test_synth_rejects_negative_seed(self, tmp_path):
        out = tmp_path / "x.csv"
        res = self.invoke(
            "synth", "-o", str(out), "--nodes", "3",
            "--samples", "50", "--density", "0.5", "--seed", "-1",
        )
        assert res.exit_code == 1
        assert res.stderr.splitlines() == ["error: ConfigError: seed must be >= 0, got -1"]
        assert not out.exists()

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
