"""Command-line entry point.

Subcommands build or load complexes, estimate Betti numbers by the exact,
thermal, or swap route, sweep inverse temperatures, run the spectral-gap
scaling experiment, and exercise the discriminant laboratory.  Every
output carries a ``meta`` block (version, command, options) sufficient to
reproduce it bit for bit.  Exit codes: 0 success, 2 invalid input, 3
numerical failure.
"""

from __future__ import annotations

import json

import click
import numpy as np

from . import __version__
from .complexes import (
    CORPUS,
    SimplicialComplex,
    build_clique_complex,
    load_point_cloud,
    random_complex,
    METRICS,
)
from .discriminant import (
    MAX_DOUBLED_DIM,
    annealing_path,
    pad_hamiltonian,
    pauli_jumps,
)
from .homology import (
    ZeroSpectrumError,
    betti_exact_kernel,
    betti_exact_rank,
    combinatorial_laplacian,
    spectrum,
)
from .swaptest import betti_swap
from .thermal import (
    DEFAULT_CRITERION,
    DEFAULT_FLOOR_GUARD,
    MAX_BETA,
    beta_threshold,
    betti_thermal,
    sweep as thermal_sweep,
    write_sweep_csv,
)
from .experiments import (
    InsufficientDataError,
    fit_power_law,
    scaling_experiment,
    write_scaling_csv,
)


class NumericalFailure(click.ClickException):
    exit_code = 3


class FiniteFloatRange(click.FloatRange):
    """FloatRange that also rejects NaN, which passes every range comparison, and +-inf."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not np.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


BETA = FiniteFloatRange(min=0.0, max=MAX_BETA)
POSITIVE = FiniteFloatRange(min=0.0, min_open=True)
# a guard of 1/2 or more floors an inverse purity half a level above b to b + 1
FLOOR_GUARD = FiniteFloatRange(min=0.0, max=0.5, max_open=True)


def _meta(command: str, **options) -> dict:
    return {
        "tool": "thermaltda",
        "version": __version__,
        "command": command,
        "options": options,
    }


def _write_json(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_complex(input_path, corpus_name) -> SimplicialComplex:
    if (input_path is None) == (corpus_name is None):
        raise click.UsageError("provide exactly one of --input or --corpus")
    if corpus_name is not None:
        return CORPUS[corpus_name]()
    try:
        return SimplicialComplex.load(input_path)
    # JSONDecodeError is a ValueError; AttributeError and TypeError come from a
    # list or a number where the format has a mapping or a simplex
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid complex file: {exc}") from exc


def _default_beta(spec, criterion: float) -> float:
    """4x the cooling threshold; 1.0 with a warning for an all-zero spectrum."""
    try:
        return 4.0 * beta_threshold(spec, spec.dim, criterion)
    except ZeroSpectrumError:
        click.echo("warning: zero Laplacian, using beta = 1.0", err=True)
        return 1.0


class ExitCodeGroup(click.Group):
    """Maps the exceptions of every subcommand to the documented exit codes.

    A failed eigensolve or a float overflow exits 3; any other ValueError
    (an empty simplex set, a malformed point cloud or JSON file, a
    Hamiltonian with no frequency grid) and an unreadable or unwritable
    path exit 2.  Bare OSError is left alone: click handles a broken pipe.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (np.linalg.LinAlgError, ArithmeticError) as exc:  # LinAlgError is a ValueError
            raise NumericalFailure(f"numerical failure: {exc}") from exc
        except (
            ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError,
        ) as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=ExitCodeGroup)
@click.version_option(version=__version__)
def main():
    """Betti numbers from thermal states of combinatorial Laplacians."""


@main.command("build-complex")
@click.option("--points", "points_path", required=True, type=click.Path(), help="CSV, one point per row")
@click.option("--metric", type=click.Choice(METRICS), default="euclidean", show_default=True)
@click.option("--epsilon", type=float, required=True, help="filtration distance")
@click.option("--max-dim", type=int, default=2, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_build_complex(points_path, metric, epsilon, max_dim, out_path):
    """Clique complex of a point cloud at one filtration scale."""
    cloud = load_point_cloud(points_path)
    cx = build_clique_complex(cloud, metric, epsilon, min(max_dim, cloud.n - 1))
    cx.save(out_path)
    sizes = {k: cx.num_simplices(k) for k in sorted(cx.sets)}
    click.echo(json.dumps({"num_simplices": {str(k): v for k, v in sizes.items()}}))


@main.command("random-complex")
@click.option("--n", type=int, required=True, help="vertex count")
@click.option("--edge-prob", type=float, required=True)
@click.option("--max-dim", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_random_complex(n, edge_prob, max_dim, seed, out_path):
    """Clique complex of an Erdos-Renyi graph."""
    cx = random_complex(n, edge_prob, max_dim, seed)
    cx.save(out_path)
    click.echo(json.dumps({"num_simplices": {str(k): cx.num_simplices(k) for k in sorted(cx.sets)}}))


@main.command("betti")
@click.option("--input", "input_path", type=click.Path(), default=None, help="complex JSON")
@click.option("--corpus", "corpus_name", type=click.Choice(sorted(CORPUS)), default=None)
@click.option("--k", type=int, required=True)
@click.option("--method", type=click.Choice(["exact", "thermal", "swap"]), default="exact", show_default=True)
@click.option("--beta", type=BETA, default=None, help="inverse temperature (default: 4x threshold)")
@click.option("--criterion", type=POSITIVE, default=DEFAULT_CRITERION, show_default=True)
@click.option("--guard", type=FLOOR_GUARD, default=DEFAULT_FLOOR_GUARD, show_default=True)
@click.option("--shots", type=click.IntRange(min=1), default=10**6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_betti(input_path, corpus_name, k, method, beta, criterion, guard, shots, seed, out_path):
    """Betti number of one dimension by the chosen route."""
    cx = _read_complex(input_path, corpus_name)
    meta = _meta(
        "betti", input=input_path, corpus=corpus_name, k=k, method=method,
        beta=beta, criterion=criterion, guard=guard, shots=shots, seed=seed,
    )
    spec = spectrum(combinatorial_laplacian(cx, k), with_vectors=method == "swap")
    if method == "exact":
        kernel = betti_exact_kernel(spec)
        ranks = betti_exact_rank(cx, k)
        payload = {
            "method": "exact",
            "k": k,
            "betti_kernel": kernel,
            "betti_rank": ranks.betti,
            "agree": kernel == ranks.betti,
            "tol_kernel": spec.tol_kernel,
            "meta": meta,
        }
    else:
        if beta is None:
            beta = _default_beta(spec, criterion)
        if method == "thermal":
            est = betti_thermal(spec, beta, guard=guard, criterion=criterion)
        else:
            est = betti_swap(spec, beta, shots, seed, guard=guard, criterion=criterion)
        payload = {"method": method, "k": k, **est.to_json_dict(), "meta": meta}
    _write_json(payload, out_path)


@main.command("sweep")
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--corpus", "corpus_name", type=click.Choice(sorted(CORPUS)), default=None)
@click.option("--k", type=int, required=True)
@click.option("--beta-min", type=BETA, default=0.01, show_default=True)
@click.option("--beta-max", type=BETA, default=10.0, show_default=True)
@click.option("--beta-steps", type=int, default=50, show_default=True)
@click.option("--criterion", type=POSITIVE, default=DEFAULT_CRITERION, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_sweep(input_path, corpus_name, k, beta_min, beta_max, beta_steps, criterion, out_path):
    """Thermal estimates along a log grid of inverse temperatures (CSV)."""
    if not (0.0 < beta_min < beta_max) or beta_steps < 1:
        raise click.UsageError("need 0 < beta-min < beta-max and beta-steps >= 1")
    cx = _read_complex(input_path, corpus_name)
    spec = spectrum(combinatorial_laplacian(cx, k))
    grid = (
        np.logspace(np.log10(beta_min), np.log10(beta_max), beta_steps)
        if beta_steps > 1
        else np.array([beta_min])
    )
    result = thermal_sweep(spec, grid, criterion)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_sweep_csv(result, fh)
    if result.beta_threshold is None:
        click.echo("warning: zero Laplacian, no cooling threshold", err=True)
    click.echo(
        json.dumps(
            {
                "beta_threshold": result.beta_threshold,
                "rows": len(result.estimates),
                "meta": _meta(
                    "sweep", input=input_path, corpus=corpus_name, k=k,
                    beta_min=beta_min, beta_max=beta_max, beta_steps=beta_steps,
                    criterion=criterion,
                ),
            },
            sort_keys=True,
        )
    )


@main.command("scaling")
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--k", "ks", type=int, multiple=True, default=(1, 2, 3, 4), show_default=True)
@click.option("--instances", type=int, default=300, show_default=True)
@click.option("--criterion", type=POSITIVE, default=DEFAULT_CRITERION, show_default=True)
@click.option("--edge-prob-lo", type=float, default=0.3, show_default=True)
@click.option("--edge-prob-hi", type=float, default=0.9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(), help="records CSV")
@click.option("--fit-out", "fit_path", type=click.Path(), default=None, help="fit JSON")
def cmd_scaling(n, ks, instances, criterion, edge_prob_lo, edge_prob_hi, seed, out_path, fit_path):
    """Cooling-threshold vs spectral-gap scaling over random complexes."""
    if n < 2:
        raise click.UsageError("need n >= 2")
    result = scaling_experiment(n, ks, instances, criterion, (edge_prob_lo, edge_prob_hi), seed)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_scaling_csv(result, fh)
    summary = {
        "records": len(result.records),
        "rejected": result.rejected,
        "meta": _meta(
            "scaling", n=n, k=list(ks), instances=instances, criterion=criterion,
            edge_prob_lo=edge_prob_lo, edge_prob_hi=edge_prob_hi, seed=seed,
        ),
    }
    try:
        fit = fit_power_law(result.records, group_by_k=True)
        summary["fit"] = fit.to_json_dict()
        if fit_path is not None:
            _write_json(fit.to_json_dict(), fit_path)
    except InsufficientDataError as exc:
        click.echo(f"warning: fit withheld: {exc}", err=True)
    click.echo(json.dumps(summary, sort_keys=True))


@main.command("discriminant-check")
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--corpus", "corpus_name", type=click.Choice(sorted(CORPUS)), default=None)
@click.option("--k", type=int, required=True)
@click.option("--beta", type=BETA, default=1.0, show_default=True, help="target inverse temperature")
# the operator Fourier transform holds an M x M phase matrix: 16 MB at the cap
@click.option("--grid-m", type=click.IntRange(min=4, max=1024), default=32, show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=5, show_default=True, help="annealing steps after beta=0")
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_discriminant_check(input_path, corpus_name, k, beta, grid_m, steps, out_path):
    """Anneal the discriminant's top eigenvector toward the purification."""
    if grid_m % 2:
        raise click.UsageError("--grid-m must be even")
    cx = _read_complex(input_path, corpus_name)
    padded = pad_hamiltonian(combinatorial_laplacian(cx, k), min_qubits=1)
    if padded.shape[0] ** 2 > MAX_DOUBLED_DIM:
        raise click.UsageError(
            f"doubled dimension {padded.shape[0] ** 2} exceeds cap {MAX_DOUBLED_DIM}"
        )
    jumps = pauli_jumps(int(np.log2(padded.shape[0])))
    if beta > 0:
        schedule = [0.0] + [beta * (i + 1) / steps for i in range(steps)]
    else:
        schedule = [0.0]
    report = annealing_path(padded, jumps, grid_m, schedule)
    payload = {
        "grid_m": grid_m,
        "beta_target": beta,
        **report.to_json_dict(),
        "meta": _meta(
            "discriminant-check", input=input_path, corpus=corpus_name, k=k,
            beta=beta, grid_m=grid_m, steps=steps,
        ),
    }
    _write_json(payload, out_path)


if __name__ == "__main__":
    main()
