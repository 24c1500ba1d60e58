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
import math
from dataclasses import asdict

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
from .discriminant import annealing_path, cut_pauli_jumps
from .homology import (
    ZeroSpectrumError,
    betti_exact_rank,
    combinatorial_laplacian,
    laplacian_kernel,
    laplacian_spectrum,
    spectral_gap,
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


def _meta() -> dict:
    """Run record of the running command: every option but the output paths,
    keyed by its flag name with dashes as underscores."""
    ctx = click.get_current_context()
    options = {
        p.opts[0].lstrip("-").replace("-", "_"): ctx.params[p.name]
        for p in ctx.command.params
        if p.name not in ("out_path", "fit_path")
    }
    return {"tool": "thermaltda", "version": __version__, "command": ctx.command.name, "options": options}


def _write_json(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _save_complex(cx: SimplicialComplex, out_path) -> None:
    """Write the complex and print its simplex count per dimension."""
    cx.save(out_path)
    click.echo(json.dumps({"num_simplices": {str(k): cx.num_simplices(k) for k in sorted(cx.sets)}}))


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
    """max(4x the cooling threshold, ln(5m)/gap); 1.0 with a warning for an all-zero spectrum.

    From beta = ln(5m)/gap the levels above the kernel weigh at most S = m e^{-beta gap}
    <= 1/5 in all, so the inverse purity lies in [b, b + 2S + S^2]: its excess over the
    Betti number b is below 0.44, under 1 - guard for every guard below 1/2, and
    z_norm <= S/m when b = 0.  The floor and the trivial-kernel test are then both right,
    whatever b is.  The max keeps 4x the threshold wherever that is already cold enough.
    """
    try:
        return max(4.0 * beta_threshold(spec, spec.dim, criterion), math.log(5 * spec.dim) / spectral_gap(spec))
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
    _save_complex(build_clique_complex(cloud, metric, epsilon, min(max_dim, cloud.n - 1)), out_path)


@main.command("random-complex")
# the adjacency is an n x n bool array, 16 MB at the cap; edges are drawn in
# blocks of at most 32 MB
@click.option("--n", type=click.IntRange(min=1, max=4_096), required=True, help="vertex count")
@click.option("--edge-prob", type=float, required=True)
@click.option("--max-dim", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_random_complex(n, edge_prob, max_dim, seed, out_path):
    """Clique complex of an Erdos-Renyi graph."""
    _save_complex(random_complex(n, edge_prob, max_dim, seed), out_path)


@main.command("betti")
@click.option("--input", "input_path", type=click.Path(), default=None, help="complex JSON")
@click.option("--corpus", "corpus_name", type=click.Choice(sorted(CORPUS)), default=None)
@click.option("--k", type=click.IntRange(min=0), required=True)
@click.option("--method", type=click.Choice(["exact", "thermal", "swap"]), default="exact", show_default=True)
@click.option("--beta", type=BETA, default=None, help="inverse temperature (default: max(4x threshold, ln(5m)/gap))")
@click.option("--criterion", type=POSITIVE, default=DEFAULT_CRITERION, show_default=True)
@click.option("--guard", type=FLOOR_GUARD, default=DEFAULT_FLOOR_GUARD, show_default=True)
# Generator.binomial takes at most 2**63 - 1 trials
@click.option("--shots", type=click.IntRange(min=1, max=2**63 - 1), default=10**6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_betti(input_path, corpus_name, k, method, beta, criterion, guard, shots, seed, out_path):
    """Betti number of one dimension by the chosen route."""
    cx = _read_complex(input_path, corpus_name)
    if method == "exact":
        kernel, tol_kernel = laplacian_kernel(cx, k)
        ranks = betti_exact_rank(cx, k)
        payload = {
            "method": "exact",
            "k": k,
            "betti_kernel": kernel,
            "betti_rank": ranks.betti,
            "agree": kernel == ranks.betti,
            "tol_kernel": tol_kernel,
            "meta": _meta(),
        }
    else:
        spec = laplacian_spectrum(cx, k)
        if beta is None:
            beta = _default_beta(spec, criterion)
        if method == "thermal":
            est = betti_thermal(spec, beta, guard=guard, criterion=criterion)
        else:
            est = betti_swap(spec, beta, shots, seed, guard=guard, criterion=criterion)
        payload = {"method": method, "k": k, **asdict(est), "meta": _meta()}
    _write_json(payload, out_path)


@main.command("sweep")
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--corpus", "corpus_name", type=click.Choice(sorted(CORPUS)), default=None)
@click.option("--k", type=click.IntRange(min=0), required=True)
@click.option("--beta-min", type=BETA, default=0.01, show_default=True)
@click.option("--beta-max", type=BETA, default=10.0, show_default=True)
# one kernel call per step, each O(m) memory: at the cap, on random_complex(40, 0.6, 4, 1)
# at k = 3 (m = 3,841), a sweep took 3.3-3.4 s at a 140 MB peak RSS (2-core VM)
@click.option("--beta-steps", type=click.IntRange(min=1, max=10_000), default=50, show_default=True)
@click.option("--criterion", type=POSITIVE, default=DEFAULT_CRITERION, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_sweep(input_path, corpus_name, k, beta_min, beta_max, beta_steps, criterion, out_path):
    """Thermal estimates along a log grid of inverse temperatures (CSV)."""
    if not 0.0 < beta_min < beta_max:
        raise click.UsageError("need 0 < beta-min < beta-max")
    cx = _read_complex(input_path, corpus_name)
    spec = laplacian_spectrum(cx, k)
    result = thermal_sweep(spec, np.geomspace(beta_min, beta_max, beta_steps), criterion)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_sweep_csv(result, fh)
    if result.beta_threshold is None:
        click.echo("warning: zero Laplacian, no cooling threshold", err=True)
    click.echo(
        json.dumps(
            {
                "beta_threshold": result.beta_threshold,
                "rows": len(result.estimates),
                "meta": _meta(),
            },
            sort_keys=True,
        )
    )


@main.command("scaling")
# each instance holds an n x n bool adjacency, 16 MB at the cap
@click.option("--n", type=click.IntRange(min=2, max=4_096), default=10, show_default=True)
@click.option("--k", "ks", type=click.IntRange(min=0), multiple=True, default=(1, 2, 3, 4), show_default=True)
# instances are drawn and solved in turn and every record is kept: at the cap a default
# query (n = 10, k = 1-4) took 78 s at a 148 MB peak RSS (one-shot process, 2-core VM)
@click.option("--instances", type=click.IntRange(min=1, max=100_000), default=300, show_default=True)
@click.option("--criterion", type=POSITIVE, default=DEFAULT_CRITERION, show_default=True)
@click.option("--edge-prob-lo", type=float, default=0.3, show_default=True)
@click.option("--edge-prob-hi", type=float, default=0.9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(), help="records CSV")
@click.option("--fit-out", "fit_path", type=click.Path(), default=None, help="fit JSON")
def cmd_scaling(n, ks, instances, criterion, edge_prob_lo, edge_prob_hi, seed, out_path, fit_path):
    """Cooling-threshold vs spectral-gap scaling over random complexes."""
    result = scaling_experiment(n, ks, instances, criterion, (edge_prob_lo, edge_prob_hi), seed)
    with open(out_path, "w", encoding="utf-8") as fh:
        write_scaling_csv(result, fh)
    summary = {
        "records": len(result.records),
        "rejected": result.rejected,
        "meta": _meta(),
    }
    try:
        fit = fit_power_law(result.records, group_by_k=True).to_json_dict()
        summary["fit"] = fit
        if fit_path is not None:
            _write_json(fit, fit_path)
    except InsufficientDataError as exc:
        click.echo(f"warning: fit withheld: {exc}", err=True)
    click.echo(json.dumps(summary, sort_keys=True))


@main.command("discriminant-check")
@click.option("--input", "input_path", type=click.Path(), default=None)
@click.option("--corpus", "corpus_name", type=click.Choice(sorted(CORPUS)), default=None)
@click.option("--k", type=click.IntRange(min=0), required=True)
@click.option("--beta", type=BETA, default=1.0, show_default=True, help="target inverse temperature")
# the smear's M x M phase matrix and its M x m^2 Gram factor take 16 MB each at
# the cap, where a default 32-level run takes 1.9-2.1 s at a 123 MB peak RSS (2-core VM)
@click.option("--grid-m", type=click.IntRange(min=4, max=1024), default=32, show_default=True)
# each step is a full discriminant build and a Lanczos solve warm-started from the
# step before: at the cap, on 32 levels at grid 32, a run took 27 s at a 61 MB peak
# RSS (2-core VM), where a default run (6 steps) peaks at 60 MB (66 MB at grid 128)
@click.option("--steps", type=click.IntRange(min=1, max=1_000), default=5, show_default=True,
              help="annealing steps after beta=0")
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_discriminant_check(input_path, corpus_name, k, beta, grid_m, steps, out_path):
    """Anneal the discriminant's top eigenvector toward the purification."""
    cx = _read_complex(input_path, corpus_name)
    # over the cap this raises on the simplex count, before any Laplacian is built
    jumps = cut_pauli_jumps(cx.num_simplices(k))
    laplacian = combinatorial_laplacian(cx, k)
    if not np.any(laplacian - laplacian[0, 0] * np.eye(len(laplacian))):
        raise ValueError(f"the {k}-Laplacian has a single level, so there is no transition frequency to resolve")
    schedule = [beta * i / steps for i in range(steps + 1)] if beta > 0 else [0.0]
    report = annealing_path(laplacian.astype(complex), jumps, grid_m, schedule)
    _write_json({"grid_m": grid_m, "beta_target": beta, **asdict(report), "meta": _meta()}, out_path)


if __name__ == "__main__":
    main()
