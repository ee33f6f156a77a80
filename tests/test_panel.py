"""Panel construction, standardization, segmentation, and lag alignment."""

import numpy as np
import pytest

from ksvar.errors import (
    ConfigError,
    ConstantColumn,
    InsufficientSamples,
    LabelMismatch,
    NonFinite,
    ShapeMismatch,
    WindowTooLong,
)
from ksvar.panel import (
    LagAlignedView,
    NoiseModel,
    SegmentationConfig,
    TimeSeriesPanel,
    lag_view,
    read_csv_panel,
    segment,
    standardize,
    write_csv_panel,
)


def make_panel(values, rate=1.0, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = tuple(f"n{i}" for i in range(values.shape[1]))
    return TimeSeriesPanel(values=values, node_labels=labels, sample_rate_hz=rate)


class TestPanelValidation:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatch):
            TimeSeriesPanel(np.zeros(5), ("a", "b"), 1.0)

    def test_rejects_nan(self):
        vals = np.ones((4, 2))
        vals[2, 1] = np.nan
        with pytest.raises(NonFinite):
            make_panel(vals)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(LabelMismatch):
            TimeSeriesPanel(np.ones((3, 2)), ("a",), 1.0)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ConfigError):
            TimeSeriesPanel(np.ones((3, 2)), ("a", "a"), 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            make_panel(np.ones((3, 2)), rate=0.0)

    def test_duration(self):
        panel = make_panel(np.zeros((100, 2)), rate=50.0)
        assert panel.duration_s == 2.0
        assert panel.n_samples == 100 and panel.n_nodes == 2


class TestStandardize:
    def test_column_1_2_3(self):
        panel = make_panel(np.array([[1.0, 5.0], [2.0, 7.0], [3.0, 6.0]]))
        out = standardize(panel)
        assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-14)
        assert np.allclose(out.values.std(axis=0, ddof=1), 1.0, atol=1e-14)
        assert out.node_labels == panel.node_labels
        assert out.sample_rate_hz == panel.sample_rate_hz

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        panel = make_panel(rng.normal(2.0, 3.0, size=(40, 3)))
        once = standardize(panel)
        twice = standardize(once)
        assert np.abs(twice.values - once.values).max() < 1e-12

    def test_constant_column_named(self):
        vals = np.column_stack([np.arange(4.0), np.full(4, 5.0)])
        with pytest.raises(ConstantColumn, match="n1"):
            standardize(make_panel(vals))

    def test_too_short(self):
        with pytest.raises(InsufficientSamples):
            standardize(make_panel(np.ones((1, 2))))


class TestSegment:
    def test_twenty_half_second_segments_from_ten_seconds(self):
        panel = make_panel(np.random.default_rng(0).normal(size=(1000, 3)), rate=100.0)
        segs = segment(panel, SegmentationConfig(window_len_s=0.5))
        assert len(segs) == 20
        assert all(s.n_samples == 50 for s in segs)

    def test_overlap_nineteen_segments(self):
        panel = make_panel(np.random.default_rng(0).normal(size=(1000, 2)), rate=100.0)
        segs = segment(panel, SegmentationConfig(window_len_s=1.0, overlap_s=0.5))
        assert len(segs) == 19
        # starts advance by window - overlap
        assert np.array_equal(segs[1].values, panel.values[50:150])

    def test_window_too_long(self):
        panel = make_panel(np.zeros((40, 2)), rate=100.0)  # 0.4 s
        with pytest.raises(WindowTooLong):
            segment(panel, SegmentationConfig(window_len_s=0.5))

    def test_count_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = int(rng.integers(10, 300))
            rate = float(rng.choice([1.0, 10.0, 250.0]))
            panel = make_panel(rng.normal(size=(t, 2)), rate=rate)
            w = int(rng.integers(2, t + 1))
            s = int(rng.integers(1, w + 1))
            segs = segment(
                panel,
                SegmentationConfig(window_len_s=w / rate, overlap_s=(w - s) / rate),
            )
            assert len(segs) == (t - w) // s + 1
            assert all(x.n_samples == w for x in segs)

    def test_rejects_tiny_window(self):
        panel = make_panel(np.zeros((100, 2)), rate=1.0)
        with pytest.raises(ConfigError):
            segment(panel, SegmentationConfig(window_len_s=0.4))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SegmentationConfig(window_len_s=0.0)
        with pytest.raises(ConfigError):
            SegmentationConfig(window_len_s=1.0, overlap_s=1.0)
        with pytest.raises(ConfigError):
            SegmentationConfig(window_len_s=1.0, overlap_s=-0.1)


class TestNoiseModel:
    def test_defaults(self):
        assert NoiseModel().variance == 1.0

    def test_rejects_negative_variance(self):
        with pytest.raises(ConfigError):
            NoiseModel(variance=-1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            NoiseModel(kind="uniform")


class TestLagView:
    def test_t5_l1(self):
        panel = make_panel(np.arange(10.0).reshape(5, 2))
        view = lag_view(panel, 1)
        assert view.n_targets == 4
        assert np.array_equal(view.targets, panel.values[1:])
        assert np.array_equal(view.regressors[1], panel.values[0:4])
        assert np.array_equal(view.regressors[0], view.targets)

    def test_rejects_lag_zero(self):
        panel = make_panel(np.zeros((5, 2)))
        with pytest.raises(ConfigError):
            lag_view(panel, 0)

    def test_insufficient_samples(self):
        panel = make_panel(np.zeros((3, 2)))
        with pytest.raises(InsufficientSamples):
            lag_view(panel, 3)

    def test_pure_reindexing(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(30, 4))
        panel = make_panel(vals)
        for lag in (1, 2, 5):
            view = lag_view(panel, lag)
            assert np.array_equal(view.targets, vals[lag:])
            for l in range(lag + 1):
                assert np.array_equal(view.regressors[l], vals[lag - l : 30 - l])
                for i in range(4):
                    assert np.array_equal(
                        view.regressor_series(i, l), vals[lag - l : 30 - l, i]
                    )

    def test_view_shape_validation(self):
        with pytest.raises(ShapeMismatch):
            LagAlignedView(
                targets=np.zeros((4, 2)),
                regressors=np.zeros((3, 4, 2)),
                node_labels=("a", "b"),
                lag=1,
            )


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        panel = make_panel(rng.normal(size=(17, 3)), rate=128.0)
        path = str(tmp_path / "panel.csv")
        write_csv_panel(panel, path)
        back = read_csv_panel(path)
        assert np.array_equal(back.values, panel.values)
        assert back.node_labels == panel.node_labels
        assert back.sample_rate_hz == 128.0

    def test_explicit_rate_wins(self, tmp_path):
        panel = make_panel(np.ones((3, 2)) * np.arange(3)[:, None], rate=10.0)
        path = str(tmp_path / "p.csv")
        write_csv_panel(panel, path)
        assert read_csv_panel(path, sample_rate_hz=99.0).sample_rate_hz == 99.0

    def test_missing_sidecar(self, tmp_path):
        panel = make_panel(np.ones((3, 2)) * np.arange(3)[:, None])
        path = str(tmp_path / "p.csv")
        write_csv_panel(panel, path, sidecar=False)
        with pytest.raises(ConfigError):
            read_csv_panel(path)

    @pytest.mark.parametrize(
        "sidecar",
        [
            '{"sample_rate_hz": "fast"}',
            '{"sample_rate_hz": true}',
            '{"sample_rate_hz": null}',
            '{"rate": 10.0}',
            "5",
            "[10.0]",
            '"10.0"',
            '{"sample_rate_hz": ',
        ],
    )
    def test_malformed_sidecar(self, tmp_path, sidecar):
        panel = make_panel(np.ones((3, 2)) * np.arange(3)[:, None])
        path = str(tmp_path / "p.csv")
        write_csv_panel(panel, path, sidecar=False)
        with open(path + ".json", "w") as handle:
            handle.write(sidecar)
        with pytest.raises(ConfigError):
            read_csv_panel(path)

    def test_missing_cell_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,\n")
        with pytest.raises(NonFinite):
            read_csv_panel(str(path), sample_rate_hz=1.0)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(NonFinite):
            read_csv_panel(str(path), sample_rate_hz=1.0)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,\xffb\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="is not UTF-8 text"):
            read_csv_panel(str(path), sample_rate_hz=1.0)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(InsufficientSamples):
            read_csv_panel(str(path), sample_rate_hz=1.0)
