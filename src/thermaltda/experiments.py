"""Spectral-gap scaling study: cooling thresholds of random complexes.

Random clique complexes are drawn at a fixed vertex count, the cooling
threshold (smallest inverse temperature meeting the rate criterion) is
solved per dimension, and the threshold is regressed against the spectral
gap on log-log axes.  Instances whose simplex set is empty or whose
Laplacian is identically zero are rejected and counted.  The whole run is
deterministic under a master seed.
"""

from __future__ import annotations

import csv
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter

import numpy as np

from .complexes import random_complex
from .homology import ZeroSpectrumError, betti_exact_kernel, laplacian_spectra, spectral_gap
from .thermal import DEFAULT_CRITERION, beta_threshold


@dataclass(frozen=True)
class ScalingRecord:
    """One row of the scaling CSV; the fields are its columns, in order."""

    instance_id: int
    seed: int
    k: int
    edge_prob: float
    num_simplices: int
    delta_gap: float
    betti: int
    beta_threshold: float


SCALING_CSV_HEADER = ",".join(f.name for f in fields(ScalingRecord))


@dataclass(frozen=True)
class ScalingResult:
    records: list[ScalingRecord]
    rejected: dict[str, int] = field(default_factory=dict)


def _instance_seeds(master_seed: int, instance_id: int) -> tuple[int, int]:
    # deterministic, well-mixed child seeds: one for the graph, one for the
    # edge-probability draw, so the two streams never overlap
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(instance_id,))
    graph_seed, prob_seed = seq.generate_state(2, dtype=np.uint64)
    return int(graph_seed), int(prob_seed)


def scaling_experiment(
    n: int,
    ks,
    instances: int,
    criterion: float = DEFAULT_CRITERION,
    edge_prob_range: tuple[float, float] = (0.3, 0.9),
    master_seed: int = 0,
) -> ScalingResult:
    """Thresholds and gaps over random clique complexes at n vertices.

    Each instance draws its edge probability uniformly from the range and
    its own seed deterministically from (master_seed, instance_id); one
    record is emitted per requested k with a nonempty simplex set and a
    nonzero Laplacian.  An over-cap k raises before any Gram matrix of the
    instance is built.
    """
    if instances < 1:
        raise ValueError("need at least one instance")
    lo, hi = edge_prob_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("edge probability range must satisfy 0 <= lo <= hi <= 1")
    ks = sorted(set(int(k) for k in ks))
    records: list[ScalingRecord] = []
    rejected = {"empty_simplex_set": 0, "zero_laplacian": 0}
    max_dim = max(ks) + 1  # the up-boundary needs one dimension above the largest k
    for instance_id in range(instances):
        seed, prob_seed = _instance_seeds(master_seed, instance_id)
        edge_prob = float(lo + (hi - lo) * np.random.default_rng(prob_seed).random())
        cx = random_complex(n, edge_prob, max_dim, seed)
        present = [k for k in ks if cx.num_simplices(k)]
        rejected["empty_simplex_set"] += len(ks) - len(present)
        for k, spec in laplacian_spectra(cx, present).items():
            try:
                gap = spectral_gap(spec)
            except ZeroSpectrumError:
                rejected["zero_laplacian"] += 1
                continue
            records.append(
                ScalingRecord(
                    instance_id=instance_id,
                    seed=seed,
                    k=k,
                    edge_prob=edge_prob,
                    num_simplices=cx.num_simplices(k),
                    delta_gap=gap,
                    betti=betti_exact_kernel(spec),
                    beta_threshold=beta_threshold(spec, spec.dim, criterion),
                )
            )
    return ScalingResult(records=records, rejected=rejected)


@dataclass(frozen=True)
class FitLine:
    """One least-squares line; the fields are its keys in the fit JSON."""

    slope: float
    slope_se: float  # standard error of the slope, from the residuals
    intercept: float
    r2: float
    n: int  # records fitted


@dataclass(frozen=True)
class PowerLawFit(FitLine):
    """Least-squares line on (ln gap, ln threshold), pooled and per k."""

    per_k: dict[int, FitLine] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def line(fit: FitLine) -> dict:
            return {f.name: getattr(fit, f.name) for f in fields(FitLine)}

        return {"pooled": line(self), "per_k": {str(k): line(fit) for k, fit in sorted(self.per_k.items())}}


class InsufficientDataError(ValueError):
    """Fewer than the minimum number of records for a trustworthy fit."""


MIN_FIT_POINTS = 10


def _fit_line(records: list) -> FitLine:
    """Least-squares line on (ln gap, ln threshold) of the records.

    Raises InsufficientDataError for fewer than MIN_FIT_POINTS records, for
    records that share one gap, which leave the slope undefined, or for
    records that share one threshold, whose slope is 0 and whose r^2 is
    undefined; and ValueError for a gap or threshold that is not positive
    and finite.
    """
    if len(records) < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_POINTS} records, got {len(records)}"
        )
    if not all(0.0 < v < np.inf for r in records for v in (r.delta_gap, r.beta_threshold)):
        raise ValueError("power-law fit needs positive, finite gaps and thresholds")
    log_x = np.log([r.delta_gap for r in records])
    log_y = np.log([r.beta_threshold for r in records])
    if np.all(log_x == log_x[0]):
        raise InsufficientDataError(f"all {len(records)} records share one gap: no slope")
    if np.all(log_y == log_y[0]):
        raise InsufficientDataError(f"all {len(records)} records share one threshold: no r^2")
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predicted = slope * log_x + intercept
    ss_res = float(((log_y - predicted) ** 2).sum())
    ss_tot = float(((log_y - log_y.mean()) ** 2).sum())
    r2 = max(0.0, 1.0 - ss_res / ss_tot)
    slope_se = float(np.sqrt(ss_res / (log_x.size - 2) / ((log_x - log_x.mean()) ** 2).sum()))
    return FitLine(float(slope), slope_se, float(intercept), r2, log_x.size)


def fit_power_law(records, group_by_k: bool = False) -> PowerLawFit:
    """Fit threshold = C * gap^slope by least squares in log-log coordinates.

    The pooled fit needs at least 10 records with more than one gap, and
    strictly positive gaps and thresholds; a k group that falls short of
    the first two is left out of ``per_k``.
    """
    records = list(records)
    pooled = _fit_line(records)
    per_k: dict[int, FitLine] = {}
    if group_by_k:
        for k in sorted(set(r.k for r in records)):
            with suppress(InsufficientDataError):
                per_k[k] = _fit_line([r for r in records if r.k == k])
    return PowerLawFit(**asdict(pooled), per_k=per_k)


def write_scaling_csv(result: ScalingResult, fh) -> None:
    """One row per record, its fields read in header order; csv writes
    floats by repr, so they round-trip exactly."""
    names = SCALING_CSV_HEADER.split(",")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(map(attrgetter(*names), result.records))


def spearman_gap_threshold(records) -> float:
    """Spearman rank correlation between gap and threshold (expected negative)."""
    from scipy.stats import spearmanr

    gaps = [r.delta_gap for r in records]
    thresholds = [r.beta_threshold for r in records]
    rho, _ = spearmanr(gaps, thresholds)
    return float(rho)
