"""ksvar benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload segments --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout that holds ``src/ksvar``.  With
``--trace 0`` a fresh workload process measures set-up time (fresh
interpreters importing ``ksvar.cli``), then runs the workload untraced for
``--seconds``, and the end-to-end metrics of ``BENCHMARK.json`` are
reported.
With ``--trace 1`` it alternates untraced and traced calls and reports the
per-layer metrics instead.  Every call's outputs are checked.  A table of
every metric with its unit and sample count goes to stdout, followed by one
JSON line; the full record, with the environment and the spans, is written
to ``perfbench/out/``.  Uses the standard library only; the workload runs
in child processes that import ksvar.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# children are killed past this, so a run exits well inside three minutes
RUN_BUDGET_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def deadline_left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def worker(mode: str, name: str, seed: int, seconds: float, trace: int, work: str,
           env: dict, deadline: float) -> None:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", name, "--seed", str(seed), "--dir", work,
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=deadline_left(deadline))


def machine(spec: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "child_threads": spec["blas_threads"],
        "seeds": {k: spec["seeds"][k] for k in ("default", "holdout")},
    }


def end_to_end(result: dict, reference_nominal_s: float) -> dict:
    """End-to-end figures, each with its sample count.

    Times are divided by a speed factor: the mean time of the reference
    blocks run between them over the block's nominal time.  The host shifts
    between a fast and a slow speed about 1.5x apart, every few seconds to
    minutes; the reference blocks sample the same shifts, so the quotient
    stays put where the raw time does not.  ``wall_s`` is the mean call
    time so scaled, ``setup_s`` the median set-up time; the raw median call
    time is reported beside them.
    """
    setup = result["setup_s"]
    ok_walls = [c["wall_s"] for c in result["calls"] if not c["problems"]]
    walls = ok_walls or [c["wall_s"] for c in result["calls"]]
    speed = statistics.mean(result["reference_s"]) / reference_nominal_s
    setup_speed = statistics.mean(result["setup_reference_s"]) / reference_nominal_s
    return {
        "wall_s": (statistics.mean(walls) / speed, len(walls)),
        "raw_wall_s": (statistics.median(walls), len(walls)),
        "speed_factor": (speed, len(result["reference_s"])),
        "setup_s": (statistics.median(setup) / setup_speed, len(setup)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def per_layer(result: dict) -> dict:
    calls = result["calls"]
    traced = [c["wall_s"] for c in calls if c["traced"]]
    plain = [c["wall_s"] for c in calls if not c["traced"]]
    out = {key: (value, len(traced)) for key, value in result["per_layer"].items()}
    out["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), len(traced))
    probe_n = sum(map(len, result["probe"]["samples_s"].values())) if "probe" in result else 0
    for key in ("solver.iter_ms", "solver.fixed_ms"):
        out[key] = (out[key][0], probe_n)
    return out


def run_one(name: str, seed: int, seconds: float, trace: int, bench: dict, spec: dict) -> int:
    """Run one workload, print its table and result line, write its record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env(spec["blas_threads"])
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        for mode in ("gen", "run"):
            worker(mode, name, seed, seconds, trace, work, env, deadline)
        result = load_json(os.path.join(work, "result.json"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = result["calls"]
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    measured = per_layer(result) if trace else end_to_end(result, spec["reference_block_s"])
    attempted = len(calls)
    failed = sum(1 for c in calls if c["problems"])
    metrics = {}
    print(f"workload {name}  seed {seed}  trace {trace}")
    print(f"{'metric':26s} {'value':>14s} {'unit':8s} {'n':>4s}")
    for m in declared:
        value, n = measured[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:26s} {value:14.6g} {m['unit']:8s} {n:4d}")
    quality = dict(result["quality"])
    quality["failed_frac"] = {"value": failed / attempted, "unit": "frac", "n": attempted}
    for key, q in quality.items():
        print(f"{key:26s} {q['value']:14.6g} {q['unit']:8s} {q['n']:4d}")
    for key, unit in (("raw_wall_s", "s"), ("speed_factor", "ratio")):
        if key in measured:
            value, n = measured[key]
            print(f"{key:26s} {value:14.6g} {unit:8s} {n:4d}")
    if trace:
        traced = [c for c in calls if c["traced"]]
        for layer in sorted({layer for c in traced for layer in c["layer_self_s"]}):
            secs = statistics.median(c["layer_self_s"].get(layer, 0.0) for c in traced)
            print(f"{'self.' + layer:26s} {secs:14.6g} {'s':8s} {len(traced):4d}")
        covered = statistics.median(sum(c["layer_self_s"].values()) / c["wall_s"] for c in traced)
        print(f"{'self.sum/traced_wall':26s} {covered:14.6g} {'ratio':8s} {len(traced):4d}")

    record = {
        "workload": name,
        "workload_spec": spec["workloads"][name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {**machine(spec), **result["environment"]},
        "metrics": {k: {"value": v, "n": n} for k, (v, n) in measured.items()},
        "quality": quality,
        "setup_s": result["setup_s"],
        "calls": calls,
        "reference_s": result["reference_s"],
        "setup_reference_s": result["setup_reference_s"],
        "probe": result.get("probe"),
    }
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str]) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "ksvar", "__init__.py")):
        print(f"error: no src/ksvar under {ROOT}; run from a ksvar checkout", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    codes = [run_one(n, args.seed, args.seconds, args.trace, bench, spec) for n in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
