"""End-to-end run: ingest CSV, segment, fit per segment, threshold, report.

Artifacts land under the output directory:

    manifest.json                run summary; config echo, versions, choices,
                                 worker count, stage timings, convergence
                                 tally, warnings
    seg_000/edges.json           every nonzero block norm, with the threshold
    seg_000/metrics.json|csv     topology report of the thresholded network
    seg_000/diagnostics.ndjson   solver residual trace, duality gap at checks
    seg_000/attribution.csv      per-kernel mass (dictionary runs only)
    seg_000/cv.json              validation table (grid runs only)
    aggregate.json               optional across-segment network
    error.json                   written instead when a stage fails

Given one config and seed the outputs are byte-identical across runs; the
manifest's created_utc and per-segment timings fields are the exceptions.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import chain

import numpy as np
import scipy

from . import __version__
from .errors import ConfigError, KsvarError, LabelMismatch, ShapeMismatch
from .kernels import KernelSpec, build_kernel_set, parse_kernel_spec
from .metrics import MetricsReport, compute_report
from .panel import (
    SegmentationConfig,
    TimeSeriesPanel,
    _json_number,
    lag_view,
    read_csv_panel,
    segment,
    standardize,
)
from .solver import (
    CoefficientTensor,
    EffectiveNetwork,
    SolverConfig,
    admm_fit,
    cross_validate_lambda,
    predict,
    ridge_fit,
    rkhs_block_norms,
    select_lag_bic,
    threshold_edges,
)

SCHEMA_VERSION = 1
AGGREGATE_RULES = ("union", "majority")

log = logging.getLogger("ksvar")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one inference run needs, flat for JSON and flag mirroring.

    Exactly one of ``lam``/``lambda_grid``, of ``kernel``/``dictionary``,
    and of ``lag``/``bic_candidates`` must be set.  ``window_s`` of None
    treats the whole panel as a single segment.
    """

    input_path: str
    output_dir: str
    sample_rate_hz: float | None = None
    window_s: float | None = None
    overlap_s: float = 0.0
    lag: int | None = None
    bic_candidates: tuple[int, ...] | None = None
    kernel: str | None = None
    dictionary: tuple[str, ...] | None = None
    lam: float | None = None
    lambda_grid: tuple[float, ...] | None = None
    cv_folds: int = 5
    rho: float = 1.0
    tau_alpha: float = 0.01
    max_iter: int = 500
    tol_primal: float = 1e-5
    tol_dual: float = 1e-5
    regularizer: str = "group_l1"
    standardize: bool = True
    aggregate: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.lam is None) == (self.lambda_grid is None):
            raise ConfigError("set exactly one of lam and lambda_grid")
        if (self.kernel is None) == (self.dictionary is None):
            raise ConfigError("set exactly one of kernel and dictionary")
        if (self.lag is None) == (self.bic_candidates is None):
            raise ConfigError("set exactly one of lag and bic_candidates")
        if self.dictionary is not None:
            object.__setattr__(self, "dictionary", tuple(self.dictionary))
            if not self.dictionary:
                raise ConfigError("dictionary must list at least one kernel")
        if self.bic_candidates is not None:
            object.__setattr__(
                self, "bic_candidates", tuple(int(c) for c in self.bic_candidates)
            )
        if self.lambda_grid is not None:
            grid = tuple(float(v) for v in self.lambda_grid)
            object.__setattr__(self, "lambda_grid", grid)
            if not grid:
                raise ConfigError("lambda_grid must be nonempty")
            if self.cv_folds < 2:
                raise ConfigError("cross-validation needs at least 2 folds")
        lams = self.lambda_grid if self.lambda_grid is not None else (self.lam,)
        for v in lams:
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"lambda value {v!r} must be finite and >= 0")
            if self.regularizer == "group_l1" and v <= 0:
                raise ConfigError("group_l1 fitting needs positive lambda values")
        if self.window_s is None and self.overlap_s:
            raise ConfigError("overlap_s needs window_s")
        if self.aggregate is not None and self.aggregate not in AGGREGATE_RULES:
            raise ConfigError(f"aggregate must be one of {AGGREGATE_RULES} or null")
        if self.tau_alpha < 0:
            raise ConfigError("tau_alpha must be nonnegative")
        self.kernel_specs()
        self.solver_config(lams[0])

    def kernel_specs(self) -> list[KernelSpec]:
        """Parsed kernel list; a single entry when ``kernel`` was given."""
        if self.kernel is not None:
            return [parse_kernel_spec(self.kernel)]
        return [parse_kernel_spec(s) for s in self.dictionary]

    def solver_config(self, lam: float) -> SolverConfig:
        return SolverConfig(
            lam=lam,
            rho=self.rho,
            max_iter=self.max_iter,
            tol_primal=self.tol_primal,
            tol_dual=self.tol_dual,
            regularizer=self.regularizer,
        )

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            # __post_init__ turns the JSON lists into tuples
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"incomplete config: {exc}") from exc

    @classmethod
    def from_json(cls, path: str, **overrides) -> "PipelineConfig":
        with open(path) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_dict(data)


@contextmanager
def _atomic_open(path: str, newline: str | None = None):
    """Text handle whose contents replace ``path`` only once fully written.

    Writes go to a temp file in the same directory, renamed over ``path``
    with ``os.replace`` on success and removed on any failure, so a reader
    never sees a truncated artifact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    with _atomic_open(path) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _network_payload(net: EffectiveNetwork) -> dict:
    n = net.n_nodes
    labels = net.node_labels if net.node_labels else tuple(f"n{i}" for i in range(n))
    if len(labels) != n:
        raise ShapeMismatch(f"{len(labels)} labels for {n} nodes")
    edges = []
    for l in range(net.lag + 1):
        for i in range(n):
            for j in range(n):
                w = float(net.weights[l, i, j])
                if w != 0.0:
                    edges.append({"src": i, "dst": j, "lag": l, "weight": w})
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": list(labels),
        "lags": net.lag,
        "tau_alpha": float(net.tau_alpha),
        "edges": edges,
    }


def save_network(net: EffectiveNetwork, path: str) -> None:
    """Edge-list JSON: every nonzero weight, sorted by (lag, src, dst).

    Sub-threshold weights are kept so a reload rebuilds the exact network;
    active edges are the subset with weight >= tau_alpha.
    """
    _write_json(path, _network_payload(net))


def load_network(path: str) -> EffectiveNetwork:
    """Rebuild an EffectiveNetwork from its edge-list JSON, exactly."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        labels = tuple(str(s) for s in data["nodes"])
        lag = _json_number(data["lags"], int)
        tau = float(_json_number(data["tau_alpha"]))
        n = len(labels)
        index = [[e[key] for e in data["edges"]] for key in ("lag", "src", "dst")]
        weight = [e["weight"] for e in data["edges"]]
        # type() is exact, so JSON's true and false do not pass for integers
        if set(map(type, chain(*index))) - {int} or set(map(type, weight)) - {int, float}:
            raise TypeError("edge lag, src and dst must be integers and weight a number")
        l, i, j = np.array(index, dtype=np.int64)
        if not ((0 <= l) & (l <= lag) & (0 <= i) & (i < n) & (0 <= j) & (j < n)).all():
            raise ValueError(f"an edge lies outside lags 0..{lag} or nodes 0..{n - 1}")
        weights = np.zeros((lag + 1, n, n))
        weights[l, i, j] = weight
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed network file {path}: {exc!r}") from exc
    supports = (weights >= tau) & (weights > 0.0)
    return EffectiveNetwork(
        supports=supports, weights=weights, tau_alpha=tau, node_labels=labels
    )


def _segment_name(idx: int) -> str:
    return f"seg_{idx:03d}"


def _write_metrics(seg_dir: str, report: MetricsReport) -> None:
    _write_json(os.path.join(seg_dir, "metrics.json"), report.to_json_dict())
    with _atomic_open(os.path.join(seg_dir, "metrics.csv"), newline="") as handle:
        csv.writer(handle).writerows(report.to_csv_rows())


def _write_ndjson(path: str, records: list[dict]) -> None:
    with _atomic_open(path) as handle:
        for rec in records:
            handle.write(json.dumps(rec) + "\n")


def _write_attribution(seg_dir: str, tensor: CoefficientTensor) -> None:
    with _atomic_open(os.path.join(seg_dir, "attribution.csv"), newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "dst", "lag", "kernel", "block_norm"])
        for row in tensor.attribution_table():
            writer.writerow(
                [row["src"], row["dst"], row["lag"], row["kernel"], repr(row["block_norm"])]
            )


def _warn_if_grid_edge(chosen: float, grid, chooser: str) -> bool:
    """Log a ``ksvar`` warning and return True when cross-validation chose
    the smallest or largest lambda of a grid with more than one value."""
    if len(set(grid)) < 2 or chosen not in (min(grid), max(grid)):
        return False
    log.warning("%s chose lambda=%r at the edge of the grid %r", chooser, chosen, list(grid))
    return True


SEGMENT_STAGES = ("lag_selection", "kernels", "cv", "fit", "threshold", "metrics", "write")


@contextmanager
def _timed(timings: dict, stage: str):
    """Add the wall seconds of the block to ``timings[stage]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] += time.perf_counter() - start


def _process_segment(idx: int, seg_panel: TimeSeriesPanel, cfg: PipelineConfig, out_root: str):
    """Fit one segment and write its artifact directory.

    Returns (summary dict, thresholded network) for the manifest and the
    optional aggregation step.  The summary's ``timings`` holds the wall
    seconds of each of ``SEGMENT_STAGES``, 0.0 for a stage the
    configuration skips.
    """
    timings = dict.fromkeys(SEGMENT_STAGES, 0.0)
    name = _segment_name(idx)
    seg_dir = os.path.join(out_root, name)
    os.makedirs(seg_dir, exist_ok=True)
    work = standardize(seg_panel) if cfg.standardize else seg_panel
    specs = cfg.kernel_specs()
    # model selection gets a definite penalty weight before CV has run
    pilot_lam = cfg.lam if cfg.lam is not None else cfg.lambda_grid[len(cfg.lambda_grid) // 2]
    kernels_arg = specs[0] if cfg.kernel is not None else specs
    if cfg.lag is not None:
        chosen_lag = cfg.lag
    else:
        with _timed(timings, "lag_selection"):
            chosen_lag = select_lag_bic(
                work, kernels_arg, list(cfg.bic_candidates), cfg.solver_config(pilot_lam), cfg.seed
            )
    view = lag_view(work, chosen_lag)
    with _timed(timings, "kernels"):
        kms = build_kernel_set(view, kernels_arg, seed=cfg.seed)

    cv_table = None
    if cfg.lambda_grid is not None:
        with _timed(timings, "cv"):
            chosen_lam, cv_table = cross_validate_lambda(
                work, kms, list(cfg.lambda_grid), cfg.cv_folds, cfg.solver_config(pilot_lam)
            )
    else:
        chosen_lam = cfg.lam
    scfg = cfg.solver_config(chosen_lam)

    with _timed(timings, "fit"):
        if cfg.regularizer == "squared":
            tensor = ridge_fit(view.targets, kms, scfg)
            resid = view.targets - predict(tensor, kms)
            fidelity = 0.5 * float(np.sum(resid * resid))
            penalty = chosen_lam * float((rkhs_block_norms(kms, tensor) ** 2).sum())
            records = []
            iterations, converged, residual_ratio, relative_gap = 1, True, 0.0, 0.0
            final_objective = fidelity + penalty
        else:
            tensor, _, diagnostics = admm_fit(view.targets, kms, scfg)
            records = diagnostics.records()
            iterations, converged = diagnostics.iterations, diagnostics.converged
            residual_ratio, relative_gap = diagnostics.residual_ratio, diagnostics.relative_gap
            fidelity, penalty = diagnostics.fidelity, diagnostics.penalty
            final_objective = diagnostics.final_objective
    records.append(
        {
            "summary": True,
            "iterations": iterations,
            "converged": converged,
            "final_objective": final_objective,
            "fidelity": fidelity,
            "penalty": penalty,
            "relative_gap": relative_gap,
        }
    )
    with _timed(timings, "write"):
        _write_ndjson(os.path.join(seg_dir, "diagnostics.ndjson"), records)
    with _timed(timings, "threshold"):
        net = threshold_edges(tensor, cfg.tau_alpha, seg_panel.node_labels)
    with _timed(timings, "write"):
        save_network(net, os.path.join(seg_dir, "edges.json"))
    with _timed(timings, "metrics"):
        report = compute_report(net)
    with _timed(timings, "write"):
        _write_metrics(seg_dir, report)
        if cfg.dictionary is not None:
            _write_attribution(seg_dir, tensor)
        if cv_table is not None:
            _write_json(
                os.path.join(seg_dir, "cv.json"),
                {"chosen_lambda": chosen_lam, "folds": cfg.cv_folds, "table": cv_table},
            )
    summary = {
        "name": name,
        "n_samples": seg_panel.n_samples,
        "lag": int(chosen_lag),
        "lambda": float(chosen_lam),
        "n_edges": net.n_edges,
        "converged": converged,
        "iterations": iterations,
        "residual_ratio": residual_ratio,
        "relative_gap": relative_gap,
        "timings": timings,
    }
    return summary, net


# thread-count setters by library: the first one a loaded library exports
# is used; numpy's and scipy's wheels bundle suffixed OpenBLAS builds
_BLAS_SETTERS = {
    "openblas": (
        "scipy_openblas_set_num_threads64_",
        "scipy_openblas_set_num_threads",
        "openblas_set_num_threads",
    ),
    "mkl": ("MKL_Set_Num_Threads",),
}


def _blas_thread_setters() -> list | None:
    """The thread-count setter of every OpenBLAS and MKL loaded into this
    process, or None when one of them exports none of ``_BLAS_SETTERS``
    or the process's memory map cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            rows = [line.split(maxsplit=5) for line in handle]
    except OSError:
        return None
    paths = {row[5].strip() for row in rows if len(row) == 6}
    setters = []
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        symbols = next((v for k, v in _BLAS_SETTERS.items() if k in name), None)
        if symbols is None:
            continue
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)
        if setter is None:
            return None
        setters.append(setter)
    return setters


def _pin_blas_to_one_thread() -> None:
    """Pool worker initializer; the pool runs only where setters exist."""
    for setter in _blas_thread_setters() or ():
        setter(1)


def _pool_size(n_segments: int) -> int:
    """Processes to fit ``n_segments`` with; 1 means in this process.

    One per CPU this process may run on, at most one per segment.  It is
    1 as well where ``fork`` is unavailable or a loaded BLAS cannot be set
    to one thread, since pooled fits must not compete for cores.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    workers = min(n_segments, cpus)
    if workers < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or _blas_thread_setters() is None:
        return 1
    return workers


def _fit_in_pool(panels: list[TimeSeriesPanel], cfg: PipelineConfig, workers: int):
    """Run ``_process_segment`` on every panel in ``workers`` forked processes.

    Returns (the results of the segments that finished, in index order,
    the exception of the lowest-index segment that failed or None).  On a
    failure, segments not yet started are cancelled and those running are
    waited for, so the results name every segment directory written.
    """
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

    # fork, because a spawned worker would import numpy, scipy and ksvar
    # again, which costs more than a whole short segment fit
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_pin_blas_to_one_thread,
    )
    try:
        futures = [
            pool.submit(_process_segment, i, p, cfg, cfg.output_dir) for i, p in enumerate(panels)
        ]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # also on an interrupt: drop the segments not yet started, wait
        # for the running ones and join every worker
        pool.shutdown(cancel_futures=True)
    finished = [f for f in futures if not f.cancelled()]
    failure = next((f.exception() for f in finished if f.exception() is not None), None)
    return [f.result() for f in finished if f.exception() is None], failure


def _padded(arrays: list[np.ndarray], lag_max: int, fill) -> list[np.ndarray]:
    out = []
    for a in arrays:
        if a.shape[0] <= lag_max:
            pad = np.full((lag_max + 1 - a.shape[0],) + a.shape[1:], fill, dtype=a.dtype)
            a = np.concatenate([a, pad])
        out.append(a)
    return out


def aggregate_networks(
    nets: list[EffectiveNetwork], rule: str, tau_alpha: float
) -> EffectiveNetwork:
    """Combine per-segment networks; weight = strongest segment block norm.

    ``union`` keeps a block active if any segment had it; ``majority``
    requires more than half and zeroes the weight elsewhere, so a saved
    aggregate reloads to exactly the same support either way.
    """
    if rule not in AGGREGATE_RULES:
        raise ConfigError(f"aggregate rule must be one of {AGGREGATE_RULES}")
    if not nets:
        raise ConfigError("nothing to aggregate")
    lag_max = max(n.lag for n in nets)
    weights = np.maximum.reduce(_padded([n.weights for n in nets], lag_max, 0.0))
    supports_stack = _padded([n.supports for n in nets], lag_max, False)
    if rule == "union":
        supports = np.logical_or.reduce(supports_stack)
    else:
        counts = np.sum(supports_stack, axis=0)
        supports = counts * 2 > len(nets)
        weights = np.where(supports, weights, 0.0)
    return EffectiveNetwork(
        supports=supports,
        weights=weights,
        tau_alpha=tau_alpha,
        node_labels=nets[0].node_labels,
    )


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the full run; returns the manifest written to disk.

    Segments are fitted in a pool of forked processes, one per CPU this
    process may run on (``os.sched_getaffinity``, else ``os.cpu_count``)
    and at most one per segment; the manifest's ``workers`` gives the
    count.  Each worker sets every loaded OpenBLAS or MKL to one thread
    before it fits anything.  The segments are fitted one after another
    in this process, and ``workers`` is 1, when that count is 1, when
    ``fork`` is unavailable or when a loaded BLAS exports no thread-count
    setter.  Artifacts are byte-identical for a fixed BLAS thread count,
    and pooled segments always use one.  No worker outlives the call.

    Any KsvarError is recorded to ``error.json`` (stage, message, and the
    segments whose directories were fully written) before being re-raised,
    so partial runs are inspectable; when a pooled segment fails, the
    segments already running are waited for, every one that finished is
    listed and the failure of the lowest-index segment is raised.  A
    successful run removes an ``error.json`` left by an earlier one.  Each
    segment that stops at ``max_iter`` without converging is logged as a
    warning on the ``ksvar`` logger and listed in the manifest's
    ``convergence`` block, which also gives the worst ratio of a final
    ADMM residual to its tolerance over segments (above 1 when some fit
    stopped unconverged) and the worst relative duality gap (the share of
    a fit's objective by which it may exceed the optimum); closed-form
    ridge fits count 0 in both.  Each segment whose cross-validation
    chose the smallest or largest lambda of its grid is logged likewise
    and listed under the manifest's ``warnings``.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    stage = "read input"
    summaries, nets = [], []
    try:
        panel = read_csv_panel(cfg.input_path, sample_rate_hz=cfg.sample_rate_hz)
        stage = "segment"
        if cfg.window_s is not None:
            seg_cfg = SegmentationConfig(window_len_s=cfg.window_s, overlap_s=cfg.overlap_s)
            panels = segment(panel, seg_cfg)
        else:
            panels = [panel]
        stage = "fit segments"
        workers = _pool_size(len(panels))
        if workers == 1:
            for i, p in enumerate(panels):
                summary, net = _process_segment(i, p, cfg, cfg.output_dir)
                summaries.append(summary)
                nets.append(net)
        else:
            results, failure = _fit_in_pool(panels, cfg, workers)
            summaries = [summary for summary, _ in results]
            nets = [net for _, net in results]
            if failure is not None:
                raise failure
        if cfg.aggregate is not None:
            stage = "aggregate"
            agg = aggregate_networks(nets, cfg.aggregate, cfg.tau_alpha)
            payload = _network_payload(agg)
            payload["rule"] = cfg.aggregate
            payload["n_segments"] = len(nets)
            _write_json(os.path.join(cfg.output_dir, "aggregate.json"), payload)
        not_converged = [s for s in summaries if not s["converged"]]
        for seg in not_converged:
            log.warning(
                "segment %s stopped at max_iter=%d without converging (relative duality gap %.2g)",
                seg["name"], cfg.max_iter, seg["relative_gap"],
            )
        at_grid_edge = [
            seg["name"]
            for seg in summaries
            if cfg.lambda_grid is not None
            and _warn_if_grid_edge(seg["lambda"], cfg.lambda_grid, f"segment {seg['name']}")
        ]
        stage = "manifest"
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "versions": {
                "ksvar": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "seed": cfg.seed,
            "config": cfg.to_dict(),
            "n_segments": len(summaries),
            "workers": workers,
            "segments": summaries,
            "convergence": {
                "converged": len(summaries) - len(not_converged),
                "segments": len(summaries),
                "not_converged": [s["name"] for s in not_converged],
                "worst_residual_ratio": max(s["residual_ratio"] for s in summaries),
                "worst_relative_gap": max(s["relative_gap"] for s in summaries),
            },
            "warnings": {"lambda_at_grid_edge": at_grid_edge},
        }
        _write_json(os.path.join(cfg.output_dir, "manifest.json"), manifest)
        # an error record from an earlier failed run into this directory is stale
        stale = os.path.join(cfg.output_dir, "error.json")
        if os.path.exists(stale):
            os.remove(stale)
        return manifest
    except KsvarError as exc:
        _write_json(
            os.path.join(cfg.output_dir, "error.json"),
            {
                "schema_version": SCHEMA_VERSION,
                "error": type(exc).__name__,
                "message": str(exc),
                "stage": stage,
                "completed_segments": [s["name"] for s in summaries],
            },
        )
        raise


PER_NODE_METRICS = (
    "in_degree",
    "out_degree",
    "total_degree",
    "betweenness",
    "closeness",
    "clustering_coefficient",
)
GLOBAL_METRICS = (
    "density",
    "global_clustering",
    "diameter",
    "avg_neighbors",
    "self_loop_count",
    "connected_component_count",
    "largest_component_size",
)


def _read_run_metrics(run_dir: str) -> tuple[list[str], list[dict]]:
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigError(f"{run_dir} has no manifest.json; not a finished run")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    segments = manifest.get("segments") if isinstance(manifest, dict) else None
    if not isinstance(segments, list):
        raise ConfigError(f"{manifest_path} is not a JSON object with a list of segments")
    reports = []
    for seg in segments:
        if not isinstance(seg, dict) or not isinstance(seg.get("name"), str):
            raise ConfigError(f"{manifest_path} lists a segment without a name: {seg!r}")
        report_path = os.path.join(run_dir, seg["name"], "metrics.json")
        if not os.path.exists(report_path):
            raise ConfigError(f"{run_dir} lists segment {seg['name']} but has no {report_path}")
        with open(report_path) as handle:
            reports.append(json.load(handle))
    if not reports:
        raise ConfigError(f"{run_dir} contains no segments")
    labels = list(reports[0]["nodes"])
    return labels, reports


def _mean_per_node(reports: list[dict], labels: list[str], metric: str) -> list[float]:
    return [
        float(np.mean([rep["nodes"][lbl][metric] for rep in reports])) for lbl in labels
    ]


def compare_runs(dir_a: str, dir_b: str) -> dict:
    """Side-by-side of two runs, averaged over segments.

    Emits per-node deltas for every local metric and a global table with
    one row per metric and one column per run; delta is run B minus run A.
    """
    labels_a, reports_a = _read_run_metrics(dir_a)
    labels_b, reports_b = _read_run_metrics(dir_b)
    if labels_a != labels_b:
        raise LabelMismatch("runs do not share node labels")
    per_node = {}
    for metric in PER_NODE_METRICS:
        a = _mean_per_node(reports_a, labels_a, metric)
        b = _mean_per_node(reports_b, labels_a, metric)
        per_node[metric] = {
            "a": a,
            "b": b,
            "delta": [vb - va for va, vb in zip(a, b)],
        }
    global_table = []
    for metric in GLOBAL_METRICS:
        va = float(np.mean([rep["global"][metric] for rep in reports_a]))
        vb = float(np.mean([rep["global"][metric] for rep in reports_b]))
        global_table.append({"metric": metric, "a": va, "b": vb, "delta": vb - va})
    return {
        "schema_version": SCHEMA_VERSION,
        "run_a": os.path.abspath(dir_a),
        "run_b": os.path.abspath(dir_b),
        "n_segments": {"a": len(reports_a), "b": len(reports_b)},
        "node_labels": labels_a,
        "per_node": per_node,
        "global": global_table,
    }
