"""SWAP-test estimate of the thermal-state purity, with shot noise.

The SWAP test on two copies of a purification of the thermal state
(Hadamard, controlled swap of the system sub-registers, Hadamard) has
ancilla Born probability p0 = (1 + Tr rho^2) / 2.  The estimator reads that
purity off the spectral kernel of the thermal module and draws shots
binomially from p0, which is statistically identical to rerunning the
circuit per shot.  The circuit itself, a canonical purification on a
doubled register and the joint-statevector SWAP test, is kept here as the
reference the tests check that Born probability against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .homology import Spectrum
from .thermal import DEFAULT_CRITERION, DEFAULT_FLOOR_GUARD, betti_thermal, floor_of_inverse

# Stability band half-width in units of the binomial deviation.  At high
# beta the inverse purity sits essentially on the integer boundary, so the
# one-sided tail of this band is the rate of wrongly-confident floors; five
# deviations pushes that below 1e-6 per record while boundary cases still
# come out flagged unstable.
STABILITY_BAND_SIGMAS = 5.0


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the computational basis of q qubits; the
    vector's power-of-two length 2**q is the only record of q."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size & (amps.size - 1):
            raise ValueError("amplitudes must be a vector of power-of-two length")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.2e}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1


def _gibbs_amplitudes(evals: np.ndarray, beta: float) -> np.ndarray:
    """w_i = exp(-beta (E_i - E_0) / 2), normalized: the canonical purification's
    amplitudes on the paired eigenvectors, for sqrt_gibbs and the discriminant's
    fidelities, which read them in H's eigenbasis."""
    weights = np.exp(-0.5 * beta * (evals - evals[0]))
    return weights / np.linalg.norm(weights)


def sqrt_gibbs(evals: np.ndarray, evecs: np.ndarray, beta: float) -> np.ndarray:
    """Square root of the Gibbs state, sum_i w_i psi_i psi_i^dagger.

    w_i are the amplitudes of _gibbs_amplitudes.  Read row-major, entry
    (a, b) is the amplitude of |a>|b> in the canonical purification.
    """
    return (evecs * _gibbs_amplitudes(evals, beta)) @ evecs.conj().T


def purification_state(spec: Spectrum, beta: float) -> StateVector:
    """Canonical purification of the thermal state on a doubled register.

    Amplitudes exp(-beta E_i / 2) on the paired eigenvectors, normalized;
    each of the two registers uses n = ceil(log2 m) qubits with the m
    simplices embedded in the first m basis states (lexicographic rank of
    the simplex = basis index) and zero padding above.
    """
    if spec.eigenvectors is None:
        raise ValueError("purification needs eigenvectors; recompute with with_vectors=True")
    m = spec.dim
    side = 2 ** (m - 1).bit_length()
    padded = np.zeros((side, side), dtype=complex)
    padded[:m, :m] = sqrt_gibbs(spec.eigenvalues, spec.eigenvectors, beta)
    return StateVector(padded.reshape(-1))


def swap_test_probabilities(state_a: StateVector, state_b: StateVector) -> tuple[float, float]:
    """Exact ancilla Born probabilities of the SWAP test between two states.

    Builds the joint statevector (1 ancilla + both inputs), applies
    Hadamard, the controlled swap of the leading half of each input (the
    system sub-registers of purifications), Hadamard, and reads off the
    ancilla marginals.  P0 - P1 equals Tr{rho_A rho_B}.
    """
    qa, qb = state_a.n_qubits, state_b.n_qubits
    if qa // 2 != qb // 2:
        raise ValueError("swap registers must have equal size")

    # joint tensor, axes: [ancilla, a_0..a_{qa-1}, b_0..b_{qb-1}]
    joint = np.tensordot(
        state_a.amplitudes.reshape((2,) * qa),
        state_b.amplitudes.reshape((2,) * qb),
        axes=0,
    )
    psi = np.stack([joint, np.zeros_like(joint)])  # ancilla |0>
    # Hadamard on ancilla
    psi = np.stack([(psi[0] + psi[1]), (psi[0] - psi[1])]) / math.sqrt(2.0)
    # controlled swap: permute axes of the ancilla=1 branch
    perm = list(range(qa + qb))
    for q in range(qa // 2):
        perm[q], perm[qa + q] = perm[qa + q], perm[q]
    psi = np.stack([psi[0], np.transpose(psi[1], perm)])
    # Hadamard on ancilla
    psi = np.stack([(psi[0] + psi[1]), (psi[0] - psi[1])]) / math.sqrt(2.0)
    p0 = float(np.clip((np.abs(psi[0]) ** 2).sum(), 0.0, 1.0))
    p1 = float(np.clip((np.abs(psi[1]) ** 2).sum(), 0.0, 1.0))
    return p0, p1


def overlap_probabilities(state_a: StateVector, state_b: StateVector) -> tuple[float, float]:
    """Same Born probabilities via Tr{rho_A rho_B} on the reduced states.

    Memory-light equivalent of the joint circuit; Tr{rho_A rho_B} =
    ||A^dagger B||_F^2 for the reshaped amplitude matrices.
    """
    na, nb = state_a.n_qubits // 2, state_b.n_qubits // 2
    mat_a = state_a.amplitudes.reshape(2**na, -1)
    mat_b = state_b.amplitudes.reshape(2**nb, -1)
    if mat_a.shape != mat_b.shape:
        raise ValueError("swap registers must have equal size")
    cross = mat_a.conj().T @ mat_b
    overlap = float(np.clip((np.abs(cross) ** 2).sum(), 0.0, 1.0))
    return (1.0 + overlap) / 2.0, (1.0 - overlap) / 2.0


@dataclass(frozen=True)
class SwapTestResult:
    """Shot statistics of the ancilla measurement."""

    shots: int
    count0: int
    count1: int

    @property
    def purity_estimate(self) -> float:
        return (self.count0 - self.count1) / self.shots

    @property
    def stderr(self) -> float:
        p_hat = self.count0 / self.shots
        return 2.0 * math.sqrt(p_hat * (1.0 - p_hat) / self.shots)


def swap_test_sample(p0: float, shots: int, seed: int) -> SwapTestResult:
    """Binomial ancilla counts at Born probability p0, deterministic per seed."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must lie in [0, 1]")
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    count0 = int(rng.binomial(shots, p0))
    return SwapTestResult(shots=shots, count0=count0, count1=shots - count0)


@dataclass(frozen=True)
class SwapBettiEstimate:
    """End-to-end swap-method Betti estimate with sampling metadata."""

    beta: float
    shots: int
    count0: int
    count1: int
    purity_estimate: float
    stderr: float
    betti_floor: int
    stable: bool
    trivial_kernel: bool
    converged: bool


def _shot_floor(purity_value: float, guard: float) -> int | None:
    """floor_of_inverse of a shot estimate read as at most 1; None unless positive."""
    if purity_value <= 0.0:
        return None
    return floor_of_inverse(min(purity_value, 1.0), guard)


def betti_swap(
    spec: Spectrum,
    beta: float,
    shots: int,
    seed: int,
    guard: float = DEFAULT_FLOOR_GUARD,
    criterion: float = DEFAULT_CRITERION,
) -> SwapBettiEstimate:
    """Thermal estimate plus shot noise: purity, SWAP-test shots, floor.

    The exact Born probability is (1 + purity) / 2 with the purity of
    ``betti_thermal``, whose trivial-kernel and convergence flags carry
    over.  The stability flag records whether the floor stays put across a
    band of STABILITY_BAND_SIGMAS binomial deviations of that probability
    around the estimate (the empirical deviation formula degenerates at
    single-digit shot counts); near an integer boundary it goes false
    rather than hiding the ambiguity.
    """
    thermal = betti_thermal(spec, beta, guard=guard, criterion=criterion)
    p0 = 0.5 * (1.0 + thermal.purity)
    result = swap_test_sample(p0, shots, seed)

    estimate = result.purity_estimate
    margin = STABILITY_BAND_SIGMAS * (2.0 * math.sqrt(p0 * (1.0 - p0) / shots))
    floor_mid = _shot_floor(estimate, guard)
    if thermal.trivial_kernel:
        floor, stable = 0, True
    elif floor_mid is None:
        floor, stable = 0, False
    else:
        floor = floor_mid
        lo = _shot_floor(estimate + margin, guard)
        hi = _shot_floor(estimate - margin, guard)
        stable = lo == floor_mid and hi == floor_mid
    return SwapBettiEstimate(
        beta=beta,
        shots=shots,
        count0=result.count0,
        count1=result.count1,
        purity_estimate=estimate,
        stderr=result.stderr,
        betti_floor=floor,
        stable=stable,
        trivial_kernel=thermal.trivial_kernel,
        converged=thermal.converged,
    )
