"""Multivariate time-series panels, windowing, and lag alignment.

A panel holds T samples of N scalar series plus node labels and a sample
rate.  Estimators never consume the raw panel directly: they consume a
:class:`LagAlignedView`, which pairs every usable target row t with the
lag-shifted regressor rows t - l for l = 0..L.  Rows 0..L-1 of the panel
have incomplete history and are never targets.

Contents
--------
- TimeSeriesPanel, SegmentationConfig, NoiseModel, LagAlignedView
- standardize, segment, lag_view, lag_view_for_rows
- read_csv_panel / write_csv_panel (header row = node labels, JSON sidecar
  carries the sample rate)
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConstantColumn,
    InsufficientSamples,
    LabelMismatch,
    NonFinite,
    ShapeMismatch,
    WindowTooLong,
)


@dataclass(frozen=True)
class TimeSeriesPanel:
    """T samples of N nodes, with labels and a sample rate in Hz."""

    values: np.ndarray
    node_labels: tuple[str, ...]
    sample_rate_hz: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ShapeMismatch(f"panel values must be 2-D, got ndim={values.ndim}")
        object.__setattr__(self, "values", values)
        labels = tuple(str(s) for s in self.node_labels)
        object.__setattr__(self, "node_labels", labels)
        if len(labels) != values.shape[1]:
            raise LabelMismatch(
                f"{len(labels)} labels for {values.shape[1]} columns"
            )
        if len(set(labels)) != len(labels):
            raise ConfigError("node labels must be unique")
        if not np.isfinite(values).all():
            raise NonFinite("panel values contain NaN or infinity")
        if not (self.sample_rate_hz > 0):
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class SegmentationConfig:
    """Sliding-window segmentation in seconds.

    Windows advance by ``window_len_s - overlap_s``; a trailing remainder
    shorter than one window is dropped.
    """

    window_len_s: float
    overlap_s: float = 0.0

    def __post_init__(self) -> None:
        if not (self.window_len_s > 0):
            raise ConfigError("window_len_s must be positive")
        if self.overlap_s < 0:
            raise ConfigError("overlap_s must be nonnegative")
        if self.overlap_s >= self.window_len_s:
            raise ConfigError("overlap_s must be smaller than window_len_s")


@dataclass(frozen=True)
class NoiseModel:
    """Innovation distribution for simulation: zero-mean Gaussian."""

    variance: float = 1.0
    kind: str = "gaussian"

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ConfigError("noise variance must be nonnegative")
        if self.kind != "gaussian":
            raise ConfigError(f"unsupported noise kind {self.kind!r}")


@dataclass(frozen=True)
class LagAlignedView:
    """Target rows plus lag-shifted regressor slices for lags 0..L.

    ``targets`` has shape (T', N).  ``regressors`` has shape (L+1, T', N)
    and ``regressors[l][t]`` holds the sample that sits l steps before
    target row t; the lag-0 slice equals ``targets``.  Views built from
    disjoint row ranges may be stacked, so T' need not equal T - L.
    """

    targets: np.ndarray
    regressors: np.ndarray
    node_labels: tuple[str, ...]
    lag: int

    def __post_init__(self) -> None:
        targets = np.asarray(self.targets, dtype=float)
        regressors = np.asarray(self.regressors, dtype=float)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "regressors", regressors)
        object.__setattr__(self, "node_labels", tuple(self.node_labels))
        if targets.ndim != 2:
            raise ShapeMismatch("targets must be 2-D")
        if regressors.shape != (self.lag + 1,) + targets.shape:
            raise ShapeMismatch(
                f"regressors shape {regressors.shape} does not match "
                f"(lag+1, T', N) = {(self.lag + 1,) + targets.shape}"
            )

    @property
    def n_targets(self) -> int:
        return self.targets.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.targets.shape[1]

    def regressor_series(self, node: int, lag: int) -> np.ndarray:
        """The aligned sample vector feeding kernel blocks for (node, lag)."""
        return self.regressors[lag][:, node]


def standardize(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """Center and scale each column to sample mean 0 and variance 1 (ddof=1).

    Raises ConstantColumn when any column has zero variance.  Applying the
    map twice changes nothing beyond floating-point noise.
    """
    if panel.n_samples < 2:
        raise InsufficientSamples("standardize needs at least 2 samples")
    mean = panel.values.mean(axis=0)
    std = panel.values.std(axis=0, ddof=1)
    flat = np.flatnonzero(std == 0)
    if flat.size:
        raise ConstantColumn(
            f"column {panel.node_labels[flat[0]]!r} has zero variance"
        )
    return TimeSeriesPanel(
        values=(panel.values - mean) / std,
        node_labels=panel.node_labels,
        sample_rate_hz=panel.sample_rate_hz,
    )


def segment(panel: TimeSeriesPanel, config: SegmentationConfig) -> list[TimeSeriesPanel]:
    """Split a panel into sliding windows.

    Produces floor((T - w) / s) + 1 segments where w and s are the window
    and step in samples.  Raises WindowTooLong when w exceeds T and
    ConfigError when w resolves to fewer than 2 samples.
    """
    window = int(round(config.window_len_s * panel.sample_rate_hz))
    step = window - int(round(config.overlap_s * panel.sample_rate_hz))
    if window < 2:
        raise ConfigError(
            f"window of {config.window_len_s} s is {window} samples at "
            f"{panel.sample_rate_hz} Hz; need at least 2"
        )
    if step < 1:
        raise ConfigError("overlap leaves a step of less than one sample")
    if window > panel.n_samples:
        raise WindowTooLong(
            f"window of {window} samples exceeds panel length {panel.n_samples}"
        )
    out = []
    for start in range(0, panel.n_samples - window + 1, step):
        out.append(
            TimeSeriesPanel(
                values=panel.values[start : start + window],
                node_labels=panel.node_labels,
                sample_rate_hz=panel.sample_rate_hz,
            )
        )
    return out


def lag_view(panel: TimeSeriesPanel, lag: int) -> LagAlignedView:
    """Align target rows lag..T-1 with their L preceding samples.

    ``lag`` must be a positive integer; panels with T <= lag leave no
    complete target row and raise InsufficientSamples.
    """
    if not isinstance(lag, (int, np.integer)) or lag < 1:
        raise ConfigError(f"lag must be a positive integer, got {lag!r}")
    lag = int(lag)
    if panel.n_samples <= lag:
        raise InsufficientSamples(
            f"panel of {panel.n_samples} samples leaves no targets at lag {lag}"
        )
    n = panel.n_samples
    regressors = np.stack([panel.values[lag - l : n - l] for l in range(lag + 1)])
    return LagAlignedView(
        targets=panel.values[lag:],
        regressors=regressors,
        node_labels=panel.node_labels,
        lag=lag,
    )


def lag_view_for_rows(
    panel: TimeSeriesPanel, lag: int, target_rows: np.ndarray
) -> LagAlignedView:
    """Lag view restricted to an explicit set of target rows.

    Every requested row must be >= lag so its full history exists.  Used
    for cross-validation folds, where held-out targets may reach back into
    training rows for their regressors.
    """
    if not isinstance(lag, (int, np.integer)) or lag < 1:
        raise ConfigError(f"lag must be a positive integer, got {lag!r}")
    lag = int(lag)
    rows = np.asarray(target_rows, dtype=int)
    if rows.size == 0:
        raise InsufficientSamples("no target rows requested")
    if rows.min() < lag or rows.max() >= panel.n_samples:
        raise ShapeMismatch("target rows must lie in [lag, T)")
    regressors = np.stack([panel.values[rows - l] for l in range(lag + 1)])
    return LagAlignedView(
        targets=panel.values[rows],
        regressors=regressors,
        node_labels=panel.node_labels,
        lag=lag,
    )


def stack_views(views: list[LagAlignedView]) -> LagAlignedView:
    """Concatenate views along the target axis (labels and lag must agree)."""
    if not views:
        raise InsufficientSamples("no views to stack")
    first = views[0]
    for v in views[1:]:
        if v.node_labels != first.node_labels:
            raise LabelMismatch("cannot stack views with different node labels")
        if v.lag != first.lag:
            raise ShapeMismatch("cannot stack views with different lags")
    return LagAlignedView(
        targets=np.concatenate([v.targets for v in views], axis=0),
        regressors=np.concatenate([v.regressors for v in views], axis=1),
        node_labels=first.node_labels,
        lag=first.lag,
    )


def _json_number(value, kind=(int, float)):
    """``value`` if it is a JSON number of ``kind`` (not a bool), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def read_csv_panel(path: str, sample_rate_hz: float | None = None) -> TimeSeriesPanel:
    """Load a panel from CSV: header row of node labels, one row per sample.

    The sample rate comes from ``sample_rate_hz`` if given, otherwise from
    a JSON sidecar ``<path>.json`` with a ``sample_rate_hz`` field.  Any
    missing or non-numeric cell is a hard error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ConfigError(f"{path} has no header row")
        labels = tuple(part.strip() for part in header.split(","))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty data handled below
                values = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise NonFinite(f"{path}: missing or non-numeric cell ({exc})") from exc
    if values.size == 0:
        raise InsufficientSamples(f"{path} has a header but no data rows")
    if values.shape[1] != len(labels):
        raise ShapeMismatch(
            f"{path}: header has {len(labels)} labels but rows have "
            f"{values.shape[1]} cells"
        )
    if not np.isfinite(values).all():
        raise NonFinite(f"{path}: data contains NaN or infinity")
    if sample_rate_hz is None:
        sidecar = path + ".json"
        try:
            with open(sidecar, "r", encoding="utf-8") as fh:
                # indexing anything but a JSON object raises TypeError
                sample_rate_hz = float(_json_number(json.load(fh)["sample_rate_hz"]))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"no sample rate given and no numeric sample_rate_hz in {sidecar} ({exc!r})"
            ) from exc
    return TimeSeriesPanel(values=values, node_labels=labels, sample_rate_hz=sample_rate_hz)


def write_csv_panel(panel: TimeSeriesPanel, path: str, sidecar: bool = True) -> None:
    """Write a panel as CSV plus (optionally) the sample-rate sidecar."""
    header = ",".join(panel.node_labels)
    np.savetxt(path, panel.values, delimiter=",", header=header, comments="", fmt="%.17g")
    if sidecar:
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"sample_rate_hz": panel.sample_rate_hz}, fh)
            fh.write("\n")
