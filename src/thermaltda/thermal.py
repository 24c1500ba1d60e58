"""Betti estimation from Gibbs-state purity of a Laplacian spectrum.

One kernel, ``spectral_sums``, evaluates the partition sums of a spectrum
along an array of inverse temperatures in a single pass: Z1 and Z2 (the
shifted sums at beta and 2 beta), the normalized partition function z_norm
and the cooling rate, the last two in log-sum-exp form so that beta up to
1e6 and eigenvalues up to 1e3 stay finite.  It is the only place that
checks beta >= 0.  Purity is Z2/Z1^2; its inverse descends monotonically
to the kernel dimension as beta grows, and the floor is the Betti
estimate.  Collision entropy, Uhlmann fidelity and Hilbert-Schmidt
distance follow from the purity, so all are one-line views of the kernel.
Everything here is exact up to floating point; shot noise lives in the
swap-test module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .homology import Spectrum, ZeroSpectrumError

DEFAULT_CRITERION = 1e-3
DEFAULT_FLOOR_GUARD = 1e-9
TRIVIAL_KERNEL_FACTOR = 0.5  # threshold 0.5/m sits midway between the limits 0 and 1/m
# largest inverse temperature: the threshold bracket's limit and the CLI's bound on beta
MAX_BETA = 1e12

SWEEP_CSV_HEADER = (
    "beta,purity,inverse_purity,betti_floor,renyi2_nats,fidelity,"
    "hs_distance,z_norm,converged"
)


class SpectralSums(NamedTuple):
    """Partition sums of one spectrum, one entry per beta."""

    z1: np.ndarray  # sum exp(-beta (lam - lam_min))
    z2: np.ndarray  # the same at 2 beta
    z_norm: np.ndarray  # (1/m) sum exp(-beta lam); 0 once it underflows
    rate: np.ndarray  # (1/m) sum lam exp(-beta lam); 0 once it underflows


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log sum exp along each row, in the arithmetic of scipy.special.logsumexp.

    The tied maxima are counted and kept out of the sum s of the shifted
    exponentials: log1p(s / count) + log(count) + max.
    """
    a_max = a.max(axis=1, keepdims=True)
    at_max = a == a_max
    count = at_max.sum(axis=1, keepdims=True, dtype=float)
    s = np.where(at_max, 0.0, np.exp(a - a_max)).sum(axis=1, keepdims=True)
    return (np.log1p(s / count) + np.log(count) + a_max)[:, 0]


def _exp_logs(logs: np.ndarray) -> np.ndarray:
    """exp of each log value, 0 below the double range.

    Per value through math.exp: np.exp differs from it in the last bit for
    some inputs, which would change the z_norm written to output files.
    """
    return np.array([math.exp(v) if v > -745.0 else 0.0 for v in logs])


def spectral_sums(spec: Spectrum, betas) -> SpectralSums:
    """Z1, Z2, z_norm and the cooling rate at every beta, in one pass.

    ``betas`` is a scalar or a 1-D array; each field has one entry per beta.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))[:, None]
    if (betas < 0.0).any():
        raise ValueError("beta must be >= 0")
    lam = spec.eigenvalues
    log_m = math.log(lam.size)
    shifted = lam - lam[0]
    z1 = np.exp(-betas * shifted).sum(axis=1)
    z2 = np.exp(-2.0 * betas * shifted).sum(axis=1)
    z_norm = _exp_logs(_logsumexp_rows(-betas * lam) - log_m)
    # sum lam e^{-beta lam} in log space; lam <= 0 terms contribute 0 or nothing
    positive = lam[lam > 0.0]
    if positive.size:
        rate = _exp_logs(_logsumexp_rows(np.log(positive) - betas * positive) - log_m)
    else:
        rate = np.zeros(betas.shape[0])
    return SpectralSums(z1, z2, z_norm, rate)


def _at(spec: Spectrum, beta: float) -> SpectralSums:
    """The kernel at one beta, as Python floats."""
    return SpectralSums(*(float(v[0]) for v in spectral_sums(spec, beta)))


def _check_dim(spec: Spectrum, m: int) -> None:
    if m != spec.dim:
        raise ValueError("m must equal the spectrum dimension")


def partition_terms(spec: Spectrum, beta: float) -> tuple[float, float, float]:
    """(Z1, Z2, z_norm) at one beta; see ``SpectralSums``."""
    return _at(spec, beta)[:3]


def purity(spec: Spectrum, beta: float) -> float:
    """Tr{rho_beta^2} = Z(2 beta)/Z(beta)^2; lies in [1/m, 1]."""
    z1, z2, _, _ = _at(spec, beta)
    return z2 / (z1 * z1)


def renyi2(purity_value: float) -> float:
    """Collision entropy in nats, -ln purity."""
    if purity_value <= 0.0:
        raise ValueError("purity must be positive")
    return -math.log(purity_value)


def uhlmann_fidelity(spec: Spectrum, tau: float, m: int) -> float:
    """Fidelity between the maximally mixed state and its cooled version.

    Equals Z1^2/(Z2 m), i.e. the inverse purity divided by the number of
    simplices; tau is the imaginary time, identified with beta.
    """
    _check_dim(spec, m)
    z1, z2, _, _ = _at(spec, tau)
    return z1 * z1 / (z2 * m)


def hs_distance(spec: Spectrum, beta: float, m: int) -> float:
    """Squared Hilbert-Schmidt distance between rho_mix and rho_beta.

    Evaluates the definition directly: purity - 1/m.  Zero exactly at
    beta = 0 or for a flat spectrum.
    """
    _check_dim(spec, m)
    return purity(spec, beta) - 1.0 / m


def cooling_rate(spec: Spectrum, tau: float) -> float:
    """|d/dtau| of the normalized partition function, (1/m) sum lam exp(-tau lam)."""
    return _at(spec, tau).rate


def detect_trivial_kernel(z_norm: float, m: int) -> bool:
    """True iff the normalized partition function has decayed below 0.5/m.

    With kernel dimension d >= 1 the value tends to d/m >= 1/m; with an
    empty kernel it tends to 0, so the midpoint separates the hypotheses.
    """
    return z_norm < TRIVIAL_KERNEL_FACTOR / m


def beta_threshold(
    spec: Spectrum, m: int, criterion: float = DEFAULT_CRITERION
) -> float:
    """Smallest inverse temperature at which the cooling rate drops to criterion.

    Solves (1/m) sum lam exp(-tau lam) <= criterion by bracketing and
    bisection on the closed-form spectral expression, to relative precision
    1e-6.  The rate is non-increasing in tau on a PSD spectrum.
    """
    _check_dim(spec, m)
    if not np.any(spec.eigenvalues >= spec.tol_kernel):
        raise ZeroSpectrumError("cooling rate is identically zero: threshold undefined")
    if cooling_rate(spec, 0.0) <= criterion:
        return 0.0
    lo, hi = 0.0, 1.0
    while cooling_rate(spec, hi) > criterion:
        lo, hi = hi, 2.0 * hi
        if hi > MAX_BETA:
            raise ArithmeticError(f"cooling threshold bracket exceeded {MAX_BETA:g}")
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if cooling_rate(spec, mid) <= criterion:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ThermalEstimate:
    """All per-beta outputs of the thermal estimator."""

    beta: float
    purity: float
    inverse_purity: float
    betti_floor: int
    renyi2: float
    fidelity: float
    hs_distance: float
    z_norm: float
    converged: bool
    trivial_kernel: bool

    def to_json_dict(self) -> dict:
        return {("renyi2_nats" if k == "renyi2" else k): v for k, v in asdict(self).items()}


def betti_thermal(
    spec: Spectrum,
    beta: float,
    guard: float = DEFAULT_FLOOR_GUARD,
    criterion: float = DEFAULT_CRITERION,
) -> ThermalEstimate:
    """Floored inverse purity at a given beta, with the trivial-kernel override.

    The guard keeps 0.999..-type rounding from dropping the floor by one;
    it is far above accumulated rounding and far below the level spacing 1.
    When the normalized partition function signals an empty kernel, the
    floor is overridden to 0 and the raw inverse purity retained.
    """
    return _estimates(spec, np.array([beta], dtype=float), guard, criterion)[0]


def _estimates(
    spec: Spectrum, betas: np.ndarray, guard: float, criterion: float
) -> list[ThermalEstimate]:
    """One ThermalEstimate per entry of a 1-D beta array, from one kernel call."""
    sums = spectral_sums(spec, betas)
    m = spec.dim
    estimates = []
    for beta, z1, z2, z_norm, rate in zip(betas.tolist(), *(v.tolist() for v in sums)):
        pur = z2 / (z1 * z1)
        inv = 1.0 / pur
        trivial = detect_trivial_kernel(z_norm, m)
        estimates.append(
            ThermalEstimate(
                beta=beta, purity=pur, inverse_purity=inv,
                betti_floor=0 if trivial else int(math.floor(inv + guard)),
                renyi2=renyi2(pur), fidelity=inv / m, hs_distance=pur - 1.0 / m,
                z_norm=z_norm, converged=rate <= criterion, trivial_kernel=trivial,
            )
        )
    return estimates


@dataclass(frozen=True)
class SweepResult:
    """Thermal estimates along an increasing beta grid."""

    betas: np.ndarray
    estimates: list[ThermalEstimate]
    beta_threshold: float | None


def sweep(
    spec: Spectrum, beta_grid, criterion: float = DEFAULT_CRITERION
) -> SweepResult:
    """Evaluate the estimator along a strictly increasing beta grid."""
    grid = np.asarray(beta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("beta grid must be nonempty")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("beta grid must be strictly increasing")
    try:
        threshold = beta_threshold(spec, spec.dim, criterion)
    except ZeroSpectrumError:
        threshold = None
    estimates = _estimates(spec, grid, DEFAULT_FLOOR_GUARD, criterion)
    return SweepResult(betas=grid, estimates=estimates, beta_threshold=threshold)


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Plot-ready CSV, one row per grid point."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for est in result.estimates:
        writer.writerow(
            [
                repr(est.beta),
                repr(est.purity),
                repr(est.inverse_purity),
                est.betti_floor,
                repr(est.renyi2),
                repr(est.fidelity),
                repr(est.hs_distance),
                repr(est.z_norm),
                est.converged,
            ]
        )
