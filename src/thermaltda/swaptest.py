"""Statevector simulation of the purity-estimation routine.

A canonical purification of the thermal state is prepared on a doubled
register, and two copies are fed to an ancilla SWAP test (Hadamard,
controlled swap of the system sub-registers, Hadamard), whose ancilla bias
gives the purity exactly.  The estimator reads that Born probability off
the reduced states, Tr{rho_A rho_B}, at every size; the joint-statevector
circuit is kept as the reference it is tested against.  Shots are then
drawn binomially from the exact Born probability, which is statistically
identical to rerunning the circuit per shot.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .homology import Spectrum
from .thermal import (
    DEFAULT_CRITERION,
    DEFAULT_FLOOR_GUARD,
    detect_trivial_kernel,
    spectral_sums,
)

# Stability band half-width in units of the binomial deviation.  At high
# beta the inverse purity sits essentially on the integer boundary, so the
# one-sided tail of this band is the rate of wrongly-confident floors; five
# deviations pushes that below 1e-6 per record while boundary cases still
# come out flagged unstable.
STABILITY_BAND_SIGMAS = 5.0


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the computational basis of q qubits."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError("amplitude vector length must be 2**n_qubits")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.2e}")
        object.__setattr__(self, "amplitudes", amps)


def sqrt_gibbs(evals: np.ndarray, evecs: np.ndarray, beta: float) -> np.ndarray:
    """Square root of the Gibbs state, sum_i w_i psi_i psi_i^dagger.

    w_i = exp(-beta (E_i - E_0) / 2), normalized.  Read row-major, entry
    (a, b) is the amplitude of |a>|b> in the canonical purification; the
    swap test and the discriminant laboratory both build it here.
    """
    weights = np.exp(-0.5 * beta * (evals - evals[0]))
    weights /= np.linalg.norm(weights)
    return (evecs * weights) @ evecs.conj().T


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
    n = max(int(math.ceil(math.log2(m))), 0)
    padded = np.zeros((2**n, 2**n), dtype=complex)
    padded[:m, :m] = sqrt_gibbs(spec.eigenvalues, spec.eigenvectors, beta)
    return StateVector(padded.reshape(-1), 2 * n)


def reduced_density(state: StateVector, n_system: int) -> np.ndarray:
    """Reduced state of the leading n_system qubits."""
    rest = state.n_qubits - n_system
    mat = state.amplitudes.reshape(2**n_system, 2**rest)
    return mat @ mat.conj().T


def swap_test_probabilities(
    state_a: StateVector,
    state_b: StateVector,
    swap_a=None,
    swap_b=None,
) -> tuple[float, float]:
    """Exact ancilla Born probabilities of the SWAP test between two states.

    Builds the joint statevector (1 ancilla + both inputs), applies
    Hadamard, the controlled swap of the listed qubit pairs, Hadamard, and
    reads off the ancilla marginals.  By default the swapped registers are
    the leading half of each input (the system sub-registers of
    purifications).  P0 - P1 equals Tr{rho_A rho_B}.
    """
    if swap_a is None:
        swap_a = tuple(range(state_a.n_qubits // 2))
    if swap_b is None:
        swap_b = tuple(range(state_b.n_qubits // 2))
    swap_a, swap_b = tuple(swap_a), tuple(swap_b)
    if len(swap_a) != len(swap_b):
        raise ValueError("swap registers must have equal size")
    qa, qb = state_a.n_qubits, state_b.n_qubits
    if any(q < 0 or q >= qa for q in swap_a) or any(q < 0 or q >= qb for q in swap_b):
        raise ValueError("swap qubit index out of range")

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
    for a_q, b_q in zip(swap_a, swap_b):
        ia, ib = a_q, qa + b_q
        perm[ia], perm[ib] = perm[ib], perm[ia]
    psi = np.stack([psi[0], np.transpose(psi[1], perm)])
    # Hadamard on ancilla
    psi = np.stack([(psi[0] + psi[1]), (psi[0] - psi[1])]) / math.sqrt(2.0)
    p0 = float(np.clip((np.abs(psi[0]) ** 2).sum(), 0.0, 1.0))
    p1 = float(np.clip((np.abs(psi[1]) ** 2).sum(), 0.0, 1.0))
    return p0, p1


def overlap_probabilities(state_a: StateVector, state_b: StateVector) -> tuple[float, float]:
    """Same Born probabilities via Tr{rho_A rho_B} on the reduced states.

    Memory-light equivalent of the joint circuit and the estimator's only
    path; Tr{rho_A rho_B} = ||A^dagger B||_F^2 for the reshaped amplitude
    matrices.
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

    def to_json_dict(self) -> dict:
        return asdict(self)


def _floor_of_inverse(purity_value: float, guard: float) -> int | None:
    if purity_value <= 0.0:
        return None
    return int(math.floor(1.0 / min(purity_value, 1.0) + guard))


def betti_swap(
    spec: Spectrum,
    beta: float,
    shots: int,
    seed: int,
    guard: float = DEFAULT_FLOOR_GUARD,
    criterion: float = DEFAULT_CRITERION,
) -> SwapBettiEstimate:
    """Full pipeline: purification, SWAP-test probabilities, shots, floor.

    The stability flag records whether the floor stays put across a band
    of STABILITY_BAND_SIGMAS binomial deviations of the exact Born
    probability around the estimate (the empirical deviation formula
    degenerates at single-digit shot counts); near an integer boundary it
    goes false rather than hiding the ambiguity.  The trivial-kernel
    override uses the exact normalized partition function of the spectrum,
    as in the spectral estimator.
    """
    sums = spectral_sums(spec, beta)
    state = purification_state(spec, beta)
    p0, _ = overlap_probabilities(state, state)
    result = swap_test_sample(p0, shots, seed)

    trivial = detect_trivial_kernel(float(sums.z_norm[0]), spec.dim)
    estimate = result.purity_estimate
    margin = STABILITY_BAND_SIGMAS * (2.0 * math.sqrt(p0 * (1.0 - p0) / shots))
    floor_mid = _floor_of_inverse(estimate, guard)
    if trivial:
        floor, stable = 0, True
    elif floor_mid is None:
        floor, stable = 0, False
    else:
        floor = floor_mid
        lo = _floor_of_inverse(estimate + margin, guard)
        hi = _floor_of_inverse(estimate - margin, guard)
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
        trivial_kernel=trivial,
        converged=float(sums.rate[0]) <= criterion,
    )
