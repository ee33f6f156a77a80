"""Benchmark processes: make a workload's inputs, or run the workload.

    python3 perfbench/worker.py gen --workload W --seed N --dir D
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 --dir D

``run.py`` starts both with ``PYTHONPATH`` set to the checkout's ``src``
and BLAS pinned to ``spec.json``'s thread count.  ``gen`` writes the
seeded inputs, and the truth used for scoring, under ``D/input``; it is a
process of its own so that generation does not count in the workload
process's peak memory.  ``run`` hands the program only the input files,
calls it in a closed loop for up to ``S`` seconds, checks every call's
outputs and writes ``D/result.json``.  With ``--trace 1`` untraced and
traced calls alternate, and the run ends with the iteration-cost probe.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import ksvar
import ksvar.metrics
import ksvar.pipeline
from ksvar.panel import NoiseModel, write_csv_panel
from ksvar.pipeline import PipelineConfig, load_network, save_network
from ksvar.synth import GroundTruth, SynthConfig, generate_truth, score_recovery, simulate

from tracing import Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_REPEATS = 3


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as handle:
        return json.load(handle)


def synth_config(wl: dict, seed: int) -> SynthConfig:
    s = wl["synth"]
    return SynthConfig(
        n_nodes=s["n_nodes"],
        n_samples=s["n_samples"],
        lag=s["lag"],
        edge_density=s["edge_density"],
        coupling=s["coupling"],
        noise=NoiseModel(variance=s["noise_variance"]),
        seed=seed,
        sample_rate_hz=s["sample_rate_hz"],
    )


def generate(wl: dict, seed: int, in_dir: str) -> None:
    """Write the workload's input files and the truth used for scoring."""
    os.makedirs(in_dir)
    cfg = synth_config(wl, seed)
    truth = generate_truth(cfg)
    np.savez(
        os.path.join(in_dir, "truth.npz"),
        coefficients=truth.coefficients,
        permutation=truth.permutation,
    )
    if "pipeline" in wl:
        write_csv_panel(simulate(truth, cfg), os.path.join(in_dir, "panel.csv"))
    else:
        save_network(truth.network(), os.path.join(in_dir, "edges.json"))


def load_truth(wl: dict, in_dir: str) -> GroundTruth:
    with np.load(os.path.join(in_dir, "truth.npz")) as data:
        return GroundTruth(
            coefficients=data["coefficients"],
            permutation=data["permutation"],
            coupling=wl["synth"]["coupling"],
        )


def pipeline_config(wl: dict, in_dir: str, out_dir: str) -> PipelineConfig:
    data = {k: v for k, v in wl["pipeline"].items() if v is not None}
    data.update(input_path=os.path.join(in_dir, "panel.csv"), output_dir=out_dir)
    return PipelineConfig.from_dict(data)


def run_call(wl: dict, in_dir: str, out_dir: str) -> None:
    """One workload call, as a user of the library or CLI would make it.

    Names are looked up on their modules at call time so that a traced
    call goes through the wrappers ``tracing.patched`` installs there.
    """
    if "pipeline" in wl:
        ksvar.pipeline.run_pipeline(pipeline_config(wl, in_dir, out_dir))
        return
    # the `ksvar metrics EDGES -o metrics.json --csv metrics.csv` path
    net = ksvar.pipeline.load_network(os.path.join(in_dir, "edges.json"))
    report = ksvar.metrics.compute_report(net)
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, "metrics.json"), "w") as handle:
        json.dump(report.to_json_dict(), handle, indent=2)
        handle.write("\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as handle:
        csv.writer(handle).writerows(report.to_csv_rows())


def file_digests(out_dir: str) -> dict[str, tuple[str, int]]:
    """sha256 and size of every file under out_dir, by relative path."""
    out = {}
    for base, _dirs, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                data = handle.read()
            out[os.path.relpath(path, out_dir)] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def check_pipeline(wl: dict, in_dir: str, out_dir: str, truth: GroundTruth | None):
    """Problems with one pipeline call's artifacts, plus quality figures
    when ``truth`` is given."""
    problems = []
    cfg = pipeline_config(wl, in_dir, out_dir)
    if os.path.exists(os.path.join(out_dir, "error.json")):
        problems.append("error.json written")
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        manifest = json.load(handle)
    seg_dirs = sorted(d for d in os.listdir(out_dir) if d.startswith("seg_"))
    if len(seg_dirs) != wl["expect_segments"] or manifest.get("n_segments") != len(seg_dirs):
        problems.append(
            f"{len(seg_dirs)} segment dirs, manifest says {manifest.get('n_segments')}, "
            f"expected {wl['expect_segments']}"
        )
    f1s = []
    for seg in seg_dirs:
        missing = set(wl["segment_files"]) - set(os.listdir(os.path.join(out_dir, seg)))
        if missing:
            problems.append(f"{seg} lacks {sorted(missing)}")
            continue
        net = load_network(os.path.join(out_dir, seg, "edges.json"))
        if net.n_nodes != wl["synth"]["n_nodes"] or net.tau_alpha != cfg.tau_alpha:
            problems.append(f"{seg}/edges.json reloads with {net.n_nodes} nodes, tau {net.tau_alpha}")
        if truth is not None:
            f1s.append(score_recovery(net, truth).f1)
    quality = {}
    if truth is not None:
        flags = [bool(s["converged"]) for s in manifest["segments"]]
        quality["edge_f1"] = {"value": statistics.median(f1s), "unit": "f1", "n": len(f1s)}
        quality["converged_frac"] = {"value": sum(flags) / len(flags), "unit": "frac", "n": len(flags)}
    if cfg.lambda_grid is not None:
        with open(os.path.join(out_dir, seg_dirs[0], "cv.json")) as handle:
            cv = json.load(handle)
        rows = {row["lambda"]: row for row in cv["table"]}
        chosen = rows.get(cv["chosen_lambda"])
        shape_ok = sorted(rows) == sorted(cfg.lambda_grid) and all(
            len(r["fold_errors"]) == cfg.cv_folds and all(map(math.isfinite, r["fold_errors"]))
            for r in rows.values()
        )
        if chosen is None or not shape_ok:
            problems.append(f"cv.json table or choice malformed: chose {cv['chosen_lambda']}")
        elif truth is not None:
            quality["cv_error"] = {"value": chosen["mean_error"], "unit": "mse", "n": cfg.cv_folds}
            quality["cv_lambda"] = {"value": cv["chosen_lambda"], "unit": "lambda", "n": 1}
    return problems, quality


def check_report(wl: dict, in_dir: str, out_dir: str):
    problems = []
    missing = set(wl["report_files"]) - set(os.listdir(out_dir))
    if missing:
        return [f"report lacks {sorted(missing)}"], {}
    net = load_network(os.path.join(in_dir, "edges.json"))
    with open(os.path.join(out_dir, "metrics.json")) as handle:
        report = json.load(handle)
    nodes = report["nodes"].values()
    ins = sum(v["in_degree"] for v in nodes)
    outs = sum(v["out_degree"] for v in nodes)
    if len(report["nodes"]) != net.n_nodes or not ins == outs == net.n_edges:
        problems.append(
            f"report has {len(report['nodes'])} nodes, degree sums {ins}/{outs}, "
            f"network has {net.n_edges} edges"
        )
    return problems, {}


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer figures for one traced call, and self seconds per layer."""
    spans = tracer.spans
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for rec in spans:
        total[rec.name] = total.get(rec.name, 0.0) + rec.duration
        count[rec.name] = count.get(rec.name, 0) + 1
    own: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for rec, sec in zip(spans, tracer.own_times()):
        own[rec.name] = own.get(rec.name, 0.0) + sec
        layer_self[rec.layer] = layer_self.get(rec.layer, 0.0) + sec

    def attrs(name: str, key: str) -> list:
        return [rec.attrs[key] for rec in spans if rec.name == name and key in rec.attrs]

    mb = 1024.0 * 1024.0
    values = {
        "kernels.build_s": total.get("build_kernel_set", 0.0),
        "kernels.total_rank": sum(attrs("build_kernel_set", "total_rank")),
        "kernels.held_mb": max(attrs("build_kernel_set", "held_bytes"), default=0) / mb,
        "solver.fit_s": total.get("admm_fit", 0.0),
        "solver.fits": count.get("admm_fit", 0),
        "solver.iterations": sum(attrs("admm_fit", "iterations")),
        "solver.converged_fits": sum(attrs("admm_fit", "converged")),
        "solver.state_mb": max(attrs("admm_fit", "state_bytes"), default=0) / mb,
        "solver.cv_s": total.get("cross_validate_lambda", 0.0),
        "solver.threshold_s": total.get("threshold_edges", 0.0),
        "metrics.report_s": total.get("compute_report", 0.0),
        "metrics.betweenness_s": total.get("betweenness", 0.0),
        "metrics.reports": count.get("compute_report", 0),
        "metrics.edges": sum(attrs("compute_report", "edges")),
        "mkl.attribution_s": total.get("attribution_table", 0.0),
        "pipeline.self_s": own.get("call", 0.0) + own.get("run_pipeline", 0.0),
        "pipeline.save_s": total.get("save_network", 0.0),
        "pipeline.load_s": total.get("load_network", 0.0),
        "panel.read_s": total.get("read_csv_panel", 0.0),
        "panel.prep_s": sum(total.get(n, 0.0) for n in ("standardize", "segment", "lag_view")),
    }
    return values, layer_self


def iteration_cost(first_fit, caps: list[int]) -> dict:
    """Fixed and per-iteration ms of one captured admm_fit call.

    The call is repeated at two iteration caps with tolerances no fit can
    reach, so both run to their cap; the line through the two median
    times gives the intercept (set-up) and slope (one iteration).
    """
    fn, args, kwargs = first_fit
    bound = inspect.signature(fn).bind(*args, **kwargs)
    key = next(
        k for k, v in bound.arguments.items()
        if dataclasses.is_dataclass(v) and hasattr(v, "max_iter")
    )
    base = bound.arguments[key]
    samples: dict[int, list[float]] = {cap: [] for cap in caps}
    for _ in range(PROBE_REPEATS):
        for cap in caps:
            bound.arguments[key] = dataclasses.replace(
                base, max_iter=cap, tol_primal=1e-300, tol_dual=1e-300
            )
            start = time.perf_counter()
            fn(*bound.args, **bound.kwargs)
            samples[cap].append(time.perf_counter() - start)
    lo, hi = caps
    t_lo, t_hi = statistics.median(samples[lo]), statistics.median(samples[hi])
    slope = (t_hi - t_lo) / (hi - lo)
    return {
        "solver.iter_ms": slope * 1e3,
        "solver.fixed_ms": (t_lo - lo * slope) * 1e3,
        "samples_s": {str(c): s for c, s in samples.items()},
    }


def reference_block() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do.

    Exact rational sums over a BFS (as in the metrics layer), small
    Cholesky solves (as in the ADMM iterations) and a symmetric eigensolve
    (as in the Gaussian factor build).  It touches no ksvar code, so its
    time moves only with the machine's speed at that moment; run between
    calls, it samples that speed over the run.
    """
    from collections import deque
    from fractions import Fraction

    import scipy.linalg

    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    n = 120
    adj = [np.flatnonzero(row) for row in rng.random((n, n)) < 0.1]
    for source in range(0, n, 2):
        seen = {source: Fraction(1)}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen[w] = seen[v] / (len(adj[v]) + 1)
                    queue.append(w)
        sum(seen.values(), Fraction(0))
    m = rng.normal(size=(76, 76))
    factor = scipy.linalg.cho_factor(m @ m.T + 76.0 * np.eye(76), lower=True)
    q = rng.normal(size=76)
    for _ in range(6000):
        q = scipy.linalg.cho_solve(factor, q)
        q /= np.linalg.norm(q)
    g = rng.normal(size=(350, 350))
    for _ in range(6):
        np.linalg.eigh(g @ g.T)
    return time.perf_counter() - start


def setup_seconds(repeats: int, reference_s: list[float]) -> list[float]:
    """Wall time of fresh interpreters importing the CLI module, with a
    reference block before the first and after each."""
    samples = []
    reference_s.append(reference_block())
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ksvar.cli"], check=True, timeout=60)
        samples.append(time.perf_counter() - start)
        reference_s.append(reference_block())
    return samples


def peak_rss_mb() -> float:
    """High-water resident set of this process.

    VmHWM belongs to this process image alone; ru_maxrss can inherit the
    parent's peak across exec, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ksvar": getattr(ksvar, "__version__", None),
        "blas": blas,
    }


def check_call(wl: dict, in_dir: str, out_dir: str, truth: GroundTruth | None):
    """(problems, quality, digests) for one finished call's output directory."""
    try:
        if "pipeline" in wl:
            problems, quality = check_pipeline(wl, in_dir, out_dir, truth)
        else:
            problems, quality = check_report(wl, in_dir, out_dir)
        return problems, quality, file_digests(out_dir)
    except Exception:
        return ["output check raised:\n" + traceback.format_exc()], {}, {}


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    wl = spec["workloads"][name]
    in_dir = os.path.join(work, "input")
    truth = load_truth(wl, in_dir) if "pipeline" in wl else None
    first_digests = None
    quality: dict = {}
    calls = []
    setup_reference_s: list[float] = []
    setup = [] if trace else setup_seconds(spec["setup_repeats"], setup_reference_s)
    reference_s = [reference_block()]
    traced_layers = []
    first_fit = None
    rounds = []
    began = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        traced = trace and len(calls) % 2 == 1
        out_dir = os.path.join(work, f"call_{len(calls):03d}")
        tracer = Tracer() if traced else None
        problems = []
        start = time.perf_counter()
        try:
            if traced:
                with patched(tracer, spec["layers"]), tracer.span("call", "pipeline"):
                    run_call(wl, in_dir, out_dir)
            else:
                run_call(wl, in_dir, out_dir)
        except Exception:
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - start
        digests = {}
        if not problems:
            problems, q, digests = check_call(wl, in_dir, out_dir, None if quality else truth)
            quality = quality or q
        compared = {k: v for k, v in digests.items() if k != "manifest.json"}
        if not problems:
            if first_digests is None:
                first_digests = compared
            elif compared != first_digests:
                changed = sorted(k for k in set(compared) | set(first_digests)
                                 if compared.get(k) != first_digests.get(k))
                problems.append(f"differs from the first repeat: {changed[:5]}")
        record = {"wall_s": wall, "traced": traced, "problems": problems}
        if traced:
            values, self_s = layer_metrics(tracer)
            values["pipeline.artifact_files"] = len(digests)
            values["pipeline.artifact_kb"] = sum(size for _, size in digests.values()) / 1024.0
            traced_layers.append(values)
            record["layer_self_s"] = self_s
            record["spans"] = [rec.to_dict() for rec in tracer.spans]
            first_fit = first_fit or tracer.first_fit
        for line in problems:
            print(f"[{name} call {len(calls)}] {line}", file=sys.stderr)
        calls.append(record)
        shutil.rmtree(out_dir, ignore_errors=True)
        reference_s.append(reference_block())
        now = time.perf_counter()
        rounds.append(now - round_start)
        # start another call only if it would end within half a call of the
        # budget, so runs average the budget; two calls are the minimum for
        # the byte-identity check
        if len(calls) >= 2 and now - began + statistics.median(rounds) / 2 > seconds:
            break
    result = {
        "calls": calls,
        "reference_s": reference_s,
        "setup_s": setup,
        "setup_reference_s": setup_reference_s,
        "peak_rss_mb": peak_rss_mb(),
        "quality": quality,
        "environment": environment(),
    }
    if trace:
        per_layer = {
            key: statistics.median(v[key] for v in traced_layers) for key in traced_layers[0]
        }
        probe = {"solver.iter_ms": 0.0, "solver.fixed_ms": 0.0}
        if first_fit is not None:
            probe = iteration_cost(first_fit, wl["probe_caps"])
            result["probe"] = probe
        per_layer["solver.iter_ms"] = probe["solver.iter_ms"]
        per_layer["solver.fixed_ms"] = probe["solver.fixed_ms"]
        result["per_layer"] = per_layer
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("gen", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.mode == "gen":
        generate(spec["workloads"][args.workload], args.seed, os.path.join(args.dir, "input"))
        return 0
    result = run_workload(
        spec, args.workload, args.seed, args.seconds, bool(args.trace), args.dir
    )
    with open(os.path.join(args.dir, "result.json"), "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
