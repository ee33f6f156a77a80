"""Command-line driver.

Verbs: ``infer`` (full pipeline), ``synth`` (ground-truth data), ``metrics``
(report for a saved network), ``compare`` (two finished runs), and ``cv``
(standalone lambda selection).  Every domain failure exits with status 1
and a one-line ``error: <Type>: <message>`` on stderr; ``infer`` also
leaves an ``error.json`` in the output directory.
"""

from __future__ import annotations

import csv
import json
import sys

import click

from . import __version__
from .errors import KsvarError
from .kernels import build_kernel_set, parse_kernel_spec
from .metrics import compute_report
from .panel import NoiseModel, lag_view, read_csv_panel, standardize, write_csv_panel
from .pipeline import (
    PipelineConfig,
    _atomic_open,
    _warn_if_grid_edge,
    _write_json,
    compare_runs,
    load_network,
    run_pipeline,
    save_network,
)
from .solver import SolverConfig, cross_validate_lambda
from .synth import SynthConfig, generate_truth, simulate


def _fail(exc: Exception) -> None:
    click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
    sys.exit(1)


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {text!r}")


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {text!r}")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Sparse directed-network inference from multivariate time series."""


def _parsed(parse):
    """Click callback that parses a list flag, leaving an absent one None."""
    return lambda ctx, param, value: parse(value) if value else None


# every option but --config is stored under the PipelineConfig field it sets
@main.command()
@click.option("--input", "-i", "input_path", type=click.Path(), help="panel CSV")
@click.option("--output-dir", "-o", type=click.Path(), help="artifact directory")
@click.option("--config", "-c", "config_path", type=click.Path(), help="JSON config; flags override")
@click.option("--rate", "sample_rate_hz", type=float, help="sample rate in Hz (else CSV sidecar)")
@click.option("--window", "window_s", type=float, help="segment window in seconds")
@click.option("--overlap", "overlap_s", type=float, help="segment overlap in seconds")
@click.option("--lag", type=int, help="fixed model order")
@click.option("--bic-candidates", callback=_parsed(_ints), help="comma-separated lag candidates for BIC")
@click.option("--kernel", help="kernel spec, e.g. linear or poly:d=2,c=1")
@click.option("--dictionary", multiple=True, callback=_parsed(tuple), help="kernel spec; repeat for a dictionary")
@click.option("--lam", type=float, help="fixed penalty weight")
@click.option("--lambda-grid", callback=_parsed(_floats), help="comma-separated penalty grid for CV")
@click.option("--folds", "cv_folds", type=int, help="CV folds")
@click.option("--rho", type=float, help="ADMM penalty parameter")
@click.option("--tau-alpha", type=float, help="edge threshold on block norms")
@click.option("--max-iter", type=int, help="ADMM iteration cap")
@click.option("--tol-primal", type=float)
@click.option("--tol-dual", type=float)
@click.option("--regularizer", type=click.Choice(["group_l1", "squared"]))
@click.option("--standardize/--no-standardize", default=None)
@click.option("--aggregate", type=click.Choice(["union", "majority"]))
@click.option("--seed", type=int)
def infer(config_path, **overrides) -> None:
    """Run the full pipeline on a panel CSV."""
    try:
        if config_path is not None:
            cfg = PipelineConfig.from_json(config_path, **overrides)
        else:
            cfg = PipelineConfig.from_dict({k: v for k, v in overrides.items() if v is not None})
        manifest = run_pipeline(cfg)
    except (KsvarError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    tally = manifest["convergence"]
    click.echo(
        f"wrote {manifest['n_segments']} segment(s) to {cfg.output_dir}, "
        f"{tally['converged']} of {tally['segments']} converged, "
        f"worst relative duality gap {tally['worst_relative_gap']:.2g}"
    )


@main.command()
@click.option("--output", "-o", required=True, type=click.Path(), help="panel CSV to write")
@click.option("--truth", type=click.Path(), help="also write true coefficients as JSON")
@click.option("--edges", type=click.Path(), help="also write the true network edge list")
@click.option("--nodes", type=int, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--lag", type=int, default=1, show_default=True)
@click.option("--density", type=float, required=True, help="edge density in (0,1)")
@click.option("--coupling", type=click.Choice(["linear", "quadratic", "sigmoid"]), default="linear", show_default=True)
@click.option("--scale", type=float, default=1.0, show_default=True, help="coefficient magnitude scale")
@click.option("--noise-variance", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--rate", type=float, default=1.0, show_default=True, help="sample rate in Hz")
@click.option("--burn-in", type=int, default=200, show_default=True)
def synth(output, truth, edges, nodes, samples, lag, density, coupling, scale,
          noise_variance, seed, rate, burn_in) -> None:
    """Generate a seeded ground-truth system and simulate a panel."""
    try:
        cfg = SynthConfig(
            n_nodes=nodes,
            n_samples=samples,
            lag=lag,
            edge_density=density,
            coupling=coupling,
            coefficient_scale=scale,
            noise=NoiseModel(variance=noise_variance),
            seed=seed,
            sample_rate_hz=rate,
            burn_in=burn_in,
        )
        gt = generate_truth(cfg)
        panel = simulate(gt, cfg)
        write_csv_panel(panel, output)
        if truth:
            _write_json(
                truth,
                {
                    "schema_version": 1,
                    "coupling": gt.coupling,
                    "permutation": gt.permutation.tolist(),
                    "coefficients": gt.coefficients.tolist(),
                    "seed": seed,
                },
            )
        if edges:
            save_network(gt.network(), edges)
    except (KsvarError, OSError) as exc:
        _fail(exc)
    click.echo(f"wrote {panel.n_samples} samples x {panel.n_nodes} nodes to {output}")


@main.command()
@click.argument("edges_json", type=click.Path())
@click.option("--output", "-o", type=click.Path(), help="report JSON (default: stdout)")
@click.option("--csv", "csv_path", type=click.Path(), help="also write the flat CSV form")
def metrics(edges_json, output, csv_path) -> None:
    """Topology report for a saved network."""
    try:
        net = load_network(edges_json)
        report = compute_report(net)
        payload = report.to_json_dict()
        if output:
            _write_json(output, payload)
        else:
            click.echo(json.dumps(payload, indent=2))
        if csv_path:
            with _atomic_open(csv_path, newline="") as handle:
                csv.writer(handle).writerows(report.to_csv_rows())
    except (KsvarError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)


@main.command()
@click.argument("dir_a", type=click.Path())
@click.argument("dir_b", type=click.Path())
@click.option("--output", "-o", type=click.Path(), help="write the comparison as JSON")
def compare(dir_a, dir_b, output) -> None:
    """Global and per-node metric deltas between two finished runs."""
    try:
        result = compare_runs(dir_a, dir_b)
    except (KsvarError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
    width = max(len(r["metric"]) for r in result["global"])
    click.echo(f"{'metric':<{width}}  {'run A':>12}  {'run B':>12}  {'delta':>12}")
    for row in result["global"]:
        click.echo(
            f"{row['metric']:<{width}}  {row['a']:>12.6g}  {row['b']:>12.6g}  {row['delta']:>12.6g}"
        )
    if output:
        _write_json(output, result)


@main.command()
@click.option("--input", "-i", "input_path", required=True, type=click.Path())
@click.option("--grid", required=True, help="comma-separated penalty values")
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--lag", type=int, required=True)
@click.option("--kernel", default="linear", show_default=True)
@click.option("--rate", type=float, help="sample rate in Hz (else CSV sidecar)")
@click.option("--rho", type=float, default=1.0, show_default=True)
@click.option("--regularizer", type=click.Choice(["group_l1", "squared"]), default="group_l1", show_default=True)
@click.option("--standardize/--no-standardize", "standardize_flag", default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", type=click.Path(), help="write the table as JSON")
def cv(input_path, grid, folds, lag, kernel, rate, rho, regularizer,
       standardize_flag, seed, output) -> None:
    """Pick a penalty weight by blocked cross-validation."""
    try:
        panel = read_csv_panel(input_path, sample_rate_hz=rate)
        if standardize_flag:
            panel = standardize(panel)
        values = _floats(grid)
        if not values:
            raise click.BadParameter("empty grid")
        kms = build_kernel_set(lag_view(panel, lag), parse_kernel_spec(kernel), seed=seed)
        cfg = SolverConfig(
            lam=values[len(values) // 2], rho=rho, regularizer=regularizer
        )
        chosen, table = cross_validate_lambda(panel, kms, list(values), folds, cfg)
    except (KsvarError, OSError) as exc:
        _fail(exc)
    _warn_if_grid_edge(chosen, values, "cross-validation")
    payload = {"chosen_lambda": chosen, "folds": folds, "table": table}
    if output:
        _write_json(output, payload)
    click.echo(f"chosen lambda: {chosen}")
    for row in table:
        click.echo(f"  lambda={row['lambda']:g}  mean_error={row['mean_error']:.6g}")


if __name__ == "__main__":
    main()
