"""Betti estimation from Gibbs-state purity of a Laplacian spectrum.

One kernel, ``spectral_sums``, evaluates the partition sums of a spectrum
at one inverse temperature; a sweep calls it once per grid point, so it
holds O(m) memory however long the grid.  Every term is shifted once by
the smallest eigenvalue: w = exp(-beta (lam - lam_min))
lies in (0, 1], so Z1 = sum w and Z2 (the same at 2 beta) cannot overflow,
and the normalized partition function and the cooling rate are
exp(-beta lam_min)/m times sum w and sum lam w.  That factor exceeds 1
only through eigensolver rounding of a zero lam_min (|lam_min| ~ 1e-13),
so nothing overflows for beta up to MAX_BETA.  Shifting by the extreme
exponent is what makes such a sum safe; a log-sum-exp would pay only if
the log itself were the output, and here the sums are.
The kernel is the only place that checks 0 <= beta < inf.  The one other sum is
beta_threshold's Newton step, which needs the rate's derivative; the
kernel's own rate certifies the threshold it returns.  Purity is Z2/Z1^2;
its inverse descends monotonically to the kernel dimension as beta grows,
and its floor is the Betti estimate.  Collision entropy, Uhlmann fidelity
and Hilbert-Schmidt distance follow from the purity, so all are fields of
one estimate.  Everything here is exact up to floating point; shot noise
lives in the swap-test module.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .homology import Spectrum, ZeroSpectrumError, spectral_gap

DEFAULT_CRITERION = 1e-3
DEFAULT_FLOOR_GUARD = 1e-9
TRIVIAL_KERNEL_FACTOR = 0.5  # threshold 0.5/m sits midway between the limits 0 and 1/m
# largest inverse temperature: the cooling threshold's limit and the CLI's bound on beta
MAX_BETA = 1e12
# cap on beta_threshold's Newton steps; each of the 979 spectra of the default
# scaling query needs at most 8 (6.3 on average), counting the final, converged one
MAX_NEWTON_STEPS = 100

SWEEP_CSV_HEADER = (
    "beta,purity,inverse_purity,betti_floor,renyi2_nats,fidelity,"
    "hs_distance,z_norm,converged"
)


class SpectralSums(NamedTuple):
    """Partition sums of one spectrum at one beta."""

    z1: float  # sum w, with w = exp(-beta (lam - lam_min)) in (0, 1]
    z2: float  # the same at 2 beta
    z_norm: float  # (1/m) sum exp(-beta lam) = exp(-beta lam_min) z1 / m
    rate: float  # (1/m) sum lam exp(-beta lam), negative rounding of lam clipped to 0


def spectral_sums(spec: Spectrum, beta: float) -> SpectralSums:
    """Z1, Z2, z_norm and the cooling rate at one inverse temperature."""
    if not 0.0 <= beta < math.inf:  # NaN fails it too
        raise ValueError("beta must be >= 0 and finite")
    lam = spec.eigenvalues
    shifted = lam - lam[0]
    w = np.exp(-beta * shifted)
    z1 = float(w.sum())
    z2 = float(np.exp(-2.0 * beta * shifted).sum())
    scale = float(np.exp(-beta * lam[0])) / lam.size
    return SpectralSums(z1, z2, scale * z1, float(scale * (w @ np.maximum(lam, 0.0))))


def _check_dim(spec: Spectrum, m: int) -> None:
    if m != spec.dim:
        raise ValueError("m must equal the spectrum dimension")


def _check_criterion(criterion: float) -> None:
    if not 0.0 < criterion < math.inf:  # NaN fails it too
        raise ValueError("criterion must be positive and finite")


def purity(spec: Spectrum, beta: float) -> float:
    """Tr{rho_beta^2} = Z(2 beta)/Z(beta)^2; lies in [1/m, 1]."""
    return betti_thermal(spec, beta).purity


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
    return betti_thermal(spec, tau).fidelity


def hs_distance(spec: Spectrum, beta: float, m: int) -> float:
    """Squared Hilbert-Schmidt distance between rho_mix and rho_beta.

    Evaluates the definition directly: purity - 1/m.  Zero exactly at
    beta = 0 or for a flat spectrum.
    """
    _check_dim(spec, m)
    return betti_thermal(spec, beta).hs_distance


def cooling_rate(spec: Spectrum, tau: float) -> float:
    """|d/dtau| of the normalized partition function, (1/m) sum lam exp(-tau lam)."""
    return spectral_sums(spec, tau).rate


def floor_of_inverse(purity_value: float, guard: float) -> int:
    """The Betti estimate of a purity in (0, 1]: floor(1/purity + guard).

    The guard keeps 0.999..-type rounding from dropping the floor by one;
    it is far above accumulated rounding and far below the level spacing 1.
    """
    return int(math.floor(1.0 / purity_value + guard))


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

    Only the levels lam > 0 enter the rate, and ln of (1/m) sum lam exp(-tau lam)
    is convex and decreasing in tau (a log-sum-exp of affine functions), so
    Newton's method on f(tau) = ln rate - ln criterion, started at tau = 0
    where f > 0, climbs to the root from below and needs no bracket.  Each
    step shifts by the smallest positive level, w = exp(-tau (lam - lam_min)),
    and takes s1 = sum lam w and s2 = sum lam^2 w: f = ln s1 - tau lam_min -
    ln(criterion m) and the step is f s1/s2.  Newton stops once a step is at
    most 1e-15 tau.  The solve's one tolerance certifies the root against the
    kernel: tau is scaled by 1 + 1e-9, then stepped up from one ulp, doubling
    the step, until ``cooling_rate`` is at or below criterion.  An iterate
    above MAX_BETA, or no convergence in MAX_NEWTON_STEPS, raises
    ArithmeticError.  A criterion that is not positive and finite raises ValueError.
    """
    _check_dim(spec, m)
    _check_criterion(criterion)
    spectral_gap(spec)  # raises ZeroSpectrumError: no positive level, no threshold
    if cooling_rate(spec, 0.0) <= criterion:
        return 0.0
    lam = spec.eigenvalues[spec.eigenvalues > 0.0]
    log_target = math.log(criterion * m)
    shifted = lam - lam[0]
    tau = 0.0
    for _ in range(MAX_NEWTON_STEPS):
        lam_w = lam * np.exp(-tau * shifted)
        s1 = float(lam_w.sum())
        step = (math.log(s1) - tau * lam[0] - log_target) * s1 / float(lam_w @ lam)
        if step <= 1e-15 * tau:
            break
        tau += step
        if tau > MAX_BETA:
            raise ArithmeticError(f"cooling threshold exceeds {MAX_BETA:g}")
    else:
        raise ArithmeticError(f"cooling threshold not converged in {MAX_NEWTON_STEPS} Newton steps")
    tau *= 1.0 + 1e-9
    step = math.ulp(tau)
    while cooling_rate(spec, tau) > criterion:
        tau, step = tau + step, 2.0 * step
    return tau


@dataclass(frozen=True)
class ThermalEstimate:
    """All per-beta outputs of the thermal estimator; the fields are the
    thermal JSON keys, and the sweep CSV columns are those its header names."""

    beta: float
    purity: float
    inverse_purity: float
    betti_floor: int
    renyi2_nats: float
    fidelity: float
    hs_distance: float
    z_norm: float
    converged: bool
    trivial_kernel: bool


def betti_thermal(
    spec: Spectrum,
    beta: float,
    guard: float = DEFAULT_FLOOR_GUARD,
    criterion: float = DEFAULT_CRITERION,
) -> ThermalEstimate:
    """Floored inverse purity at a given beta, with the trivial-kernel override.

    The floor is ``floor_of_inverse`` of the purity.  When the normalized
    partition function signals an empty kernel, the floor is overridden to
    0 and the raw inverse purity retained.  A guard outside [0, 1/2) or a
    criterion that is not positive and finite raises ValueError: a guard of 1/2
    or more floors an inverse purity half a level above b to b + 1.
    """
    if not 0.0 <= guard < 0.5:  # NaN fails it too
        raise ValueError("guard must lie in [0, 0.5)")
    _check_criterion(criterion)
    z1, z2, z_norm, rate = spectral_sums(spec, beta)
    m = spec.dim
    pur = z2 / (z1 * z1)
    inv = 1.0 / pur
    trivial = detect_trivial_kernel(z_norm, m)
    return ThermalEstimate(
        beta=float(beta), purity=pur, inverse_purity=inv,
        betti_floor=0 if trivial else floor_of_inverse(pur, guard),
        renyi2_nats=renyi2(pur), fidelity=inv / m, hs_distance=pur - 1.0 / m,
        z_norm=z_norm, converged=rate <= criterion, trivial_kernel=trivial,
    )


@dataclass(frozen=True)
class SweepResult:
    """Thermal estimates along an increasing beta grid."""

    estimates: list[ThermalEstimate]
    beta_threshold: float | None


def sweep(
    spec: Spectrum, beta_grid, criterion: float = DEFAULT_CRITERION
) -> SweepResult:
    """Evaluate the estimator along a strictly increasing beta grid, one
    kernel call per grid point."""
    grid = np.asarray(beta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("beta grid must be nonempty")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("beta grid must be strictly increasing")
    try:
        threshold = beta_threshold(spec, spec.dim, criterion)
    except ZeroSpectrumError:
        threshold = None
    estimates = [betti_thermal(spec, b, criterion=criterion) for b in grid.tolist()]
    return SweepResult(estimates=estimates, beta_threshold=threshold)


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Plot-ready CSV, one row per grid point: the header's fields of each estimate."""
    writer = csv.DictWriter(
        fh, SWEEP_CSV_HEADER.split(","), extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(asdict(est) for est in result.estimates)
