"""Matrix-level laboratory for the dissipative Gibbs-sampler construction.

Jump operators (single-site Paulis) are Fourier-transformed over a finite
time grid into frequency-resolved components, weighted by Metropolis
acceptance rates, and assembled into a Hermitian discriminant matrix on
the doubled system.  Its top eigenvector approximates the canonical
purification of the thermal state, improving as the grid is refined; an
annealing pass follows that eigenvector along a schedule of increasing
inverse temperature.

Frequency sign convention: a component at frequency omega describes a
transition in which the system loses energy omega, so the acceptance
ratio gamma(omega)/gamma(-omega) = exp(beta * omega) favors cooling and
the stationary state is the Gibbs state of +H.  With exact frequency
resolution (flat window, all level spacings on the grid) the top
eigenvector is the canonical purification exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .swaptest import StateVector, sqrt_gibbs

MAX_DOUBLED_DIM = 4096  # D is (2^n)^2 x (2^n)^2: desk scale caps at n = 6

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class FrequencyGrid:
    """Conjugate time/frequency grids: multiples of (t0, omega0), M points each."""

    m_points: int
    omega0: float
    t0: float

    @property
    def omegas(self) -> np.ndarray:
        j = np.arange(-self.m_points // 2, self.m_points // 2)
        return self.omega0 * j

    @property
    def times(self) -> np.ndarray:
        j = np.arange(-self.m_points // 2, self.m_points // 2)
        return self.t0 * j


def make_grid(norm_h: float, m_points: int) -> FrequencyGrid:
    """Minimal grid covering level spacings up to norm_h.

    omega0 = 2 norm_h / M makes the frequency range [-norm_h, norm_h);
    t0 follows from omega0 t0 = 2 pi / M.
    """
    if norm_h <= 0.0:
        raise ValueError("norm_h must be positive")
    if m_points < 4 or m_points % 2:
        raise ValueError("m_points must be even and >= 4")
    omega0 = 2.0 * norm_h / m_points
    t0 = 2.0 * math.pi / (m_points * omega0)
    return FrequencyGrid(m_points=m_points, omega0=omega0, t0=t0)


def bohr_coverage(hamiltonian: np.ndarray, margin: float = 1.25) -> float:
    """Coverage bound for make_grid: margin times the full level-spacing width.

    The margin keeps the extreme transition frequencies strictly inside the
    grid range, away from the aliased edge point.
    """
    evals = np.linalg.eigvalsh(hamiltonian)
    return margin * float(evals[-1] - evals[0])


@dataclass(frozen=True)
class GaussianWindow:
    """Real time-window weights with unit sum of squares."""

    weights: np.ndarray
    sigma_t: float


def gaussian_window(grid: FrequencyGrid, sigma_t: float) -> GaussianWindow:
    """Gaussian weights exp(-t^2/(4 sigma_t^2)) on the time grid, normalized."""
    if sigma_t <= 0.0:
        raise ValueError("sigma_t must be positive")
    f = np.exp(-grid.times**2 / (4.0 * sigma_t**2))
    return GaussianWindow(weights=f / np.linalg.norm(f), sigma_t=sigma_t)


def default_sigma_t(beta: float, grid: FrequencyGrid) -> float:
    """Window width rule: a fixed fraction of the total window, tightening with beta."""
    return max(1.0, beta / 4.0) * grid.t0 * grid.m_points / 16.0


@dataclass(frozen=True)
class JumpSet:
    """Hermitian, involutory jump operators (all single-site Paulis)."""

    operators: list
    labels: list


def pauli_jumps(n_qubits: int) -> JumpSet:
    """All 3n single-site Pauli operators on n qubits."""
    ops, labels = [], []
    for i in range(n_qubits):
        for name, pauli in _PAULI.items():
            op = np.array([[1.0 + 0j]])
            for q in range(n_qubits):
                op = np.kron(op, pauli if q == i else np.eye(2, dtype=complex))
            ops.append(op)
            labels.append(f"{name}{i}")
    return JumpSet(operators=ops, labels=labels)


def heisenberg(op: np.ndarray, hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """Time-evolved operator e^{iHt} A e^{-iHt}, exact via eigendecomposition."""
    if op.shape != hamiltonian.shape:
        raise ValueError("operator and Hamiltonian shapes differ")
    evals, evecs = np.linalg.eigh(hamiltonian)
    phases = np.exp(1j * evals * t)
    in_basis = evecs.conj().T @ op @ evecs
    evolved = (phases[:, None] * in_basis) * phases.conj()[None, :]
    return evecs @ evolved @ evecs.conj().T


def _fourier_components(
    op: np.ndarray,
    evals: np.ndarray,
    evecs: np.ndarray,
    grid: FrequencyGrid,
    window: GaussianWindow,
) -> np.ndarray:
    """Stack of A(omega) over grid.omegas, computed in the H eigenbasis.

    The smeared phases sum_t f(t) e^{i(omega + E_a - E_b)t} of all grid
    frequencies are one (omega, t) x (t, ab) matrix product.
    """
    in_basis = evecs.conj().T @ op @ evecs
    gaps = (evals[:, None] - evals[None, :]).reshape(-1)
    times = grid.times
    weighted = window.weights * np.exp(1j * np.multiply.outer(grid.omegas, times))
    smear = (weighted @ np.exp(1j * np.multiply.outer(times, gaps))).reshape(-1, *op.shape)
    return evecs @ (in_basis * smear / math.sqrt(grid.m_points)) @ evecs.conj().T


def operator_fourier(
    op: np.ndarray,
    hamiltonian: np.ndarray,
    grid: FrequencyGrid,
    window: GaussianWindow,
) -> dict[float, np.ndarray]:
    """Weighted Fourier transform of the time-evolved operator.

    A(omega) = M^{-1/2} sum_t f(t) e^{i omega t} e^{iHt} A e^{-iHt}; the
    transform is unitary in the sense that summing A(omega)^dagger A(omega)
    over the grid reproduces sum f(t)^2 A(t)^dagger A(t), so Pauli jumps
    satisfy the completeness identity and any operator satisfies Parseval.
    Components concentrate at (minus) the level spacings of H reachable by
    the operator's matrix elements; A(omega)^dagger = A(-omega).
    """
    evals, evecs = np.linalg.eigh(hamiltonian)
    comps = _fourier_components(op, evals, evecs, grid, window)
    return {float(w): comps[i] for i, w in enumerate(grid.omegas)}


def metropolis_weight(omega: float, beta: float) -> float:
    """Acceptance rate min(1, e^{beta omega}); cooling transitions pass freely."""
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    return min(1.0, math.exp(min(beta * omega, 0.0)))


def metropolis_weights(grid: FrequencyGrid, beta: float) -> np.ndarray:
    """Metropolis rates over the frequency grid; satisfies the exact ratio
    gamma(omega) / gamma(-omega) = e^{beta omega}."""
    return np.array([metropolis_weight(w, beta) for w in grid.omegas])


@dataclass(frozen=True)
class DiscriminantModel:
    """Assembled discriminant matrix with its rates and the eigensystem of H."""

    hamiltonian: np.ndarray
    beta: float
    d_matrix: np.ndarray
    gammas: np.ndarray
    hermiticity_defect: float
    h_eigenvalues: np.ndarray  # eigensystem of the Hamiltonian, reused downstream
    h_eigenvectors: np.ndarray


def pad_hamiltonian(laplacian: np.ndarray, min_qubits: int = 0) -> np.ndarray:
    """Embed a Laplacian block into the next power-of-two dimension.

    Unused basis states receive a penalty energy above the top of the
    spectrum, excluding them from the low-temperature manifold without
    touching the kernel.  ``min_qubits`` forces at least that many qubits
    (the jump set needs a qubit to act on even for a single simplex).
    """
    m = laplacian.shape[0]
    n = max(int(math.ceil(math.log2(m))), min_qubits)
    dim = 2**n
    evals = np.linalg.eigvalsh(np.asarray(laplacian, dtype=float))
    penalty = float(evals[-1] + 10.0 * (evals[-1] - evals[0] + 1.0))
    padded = np.full(dim, penalty, dtype=float)
    out = np.diag(padded).astype(complex)
    out[:m, :m] = laplacian
    return out


def build_discriminant(
    hamiltonian: np.ndarray,
    jumps: JumpSet,
    grid: FrequencyGrid,
    window: GaussianWindow,
    beta: float,
) -> DiscriminantModel:
    """Assemble the Hermitian discriminant matrix on the doubled system.

    For each jump and frequency, the coherent term couples the two copies
    through A(omega) x conj(A(omega)) at the symmetrized rate
    sqrt(gamma(omega) gamma(-omega)), and the decay term subtracts half the
    rate-weighted normalizations on each side.  The lone unpaired grid
    frequency (-M omega0 / 2, whose mirror aliases onto itself) also uses
    the symmetrized rate in its decay term; with the bare rate that single
    term could tip the matrix above zero.
    """
    dim = hamiltonian.shape[0]
    if dim * dim > MAX_DOUBLED_DIM:
        raise ValueError(
            f"doubled dimension {dim * dim} exceeds the desk-scale cap {MAX_DOUBLED_DIM}"
        )
    evals, evecs = np.linalg.eigh(hamiltonian)
    gammas = metropolis_weights(grid, beta)
    gammas_neg = np.array([metropolis_weight(-w, beta) for w in grid.omegas])
    sym_rates = np.sqrt(gammas * gammas_neg)
    decay_rates = gammas.copy()
    decay_rates[0] = sym_rates[0]
    # coherent[(i, j), (k, l)] = sum_omega rate A[i, j] conj(A[k, l])
    coherent = np.zeros((dim * dim, dim * dim), dtype=complex)
    norm_term = np.zeros((dim, dim), dtype=complex)
    for op in jumps.operators:
        comps = _fourier_components(op, evals, evecs, grid, window)
        flat = comps.reshape(grid.m_points, dim * dim)
        coherent += (flat.T * sym_rates) @ flat.conj()
        norm_term += np.tensordot(decay_rates, comps.conj().transpose(0, 2, 1) @ comps, axes=1)
    # reorder to the kron(A, conj A) index ((i, k), (j, l))
    coherent = coherent.reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    eye = np.eye(dim, dtype=complex)
    decay = 0.5 * (np.kron(norm_term, eye) + np.kron(eye, norm_term.conj()))
    d_matrix = (coherent - decay) / len(jumps.operators)
    defect = float(np.abs(d_matrix - d_matrix.conj().T).max())
    return DiscriminantModel(
        hamiltonian=hamiltonian,
        beta=beta,
        d_matrix=d_matrix,
        gammas=gammas,
        hermiticity_defect=defect,
        h_eigenvalues=evals,
        h_eigenvectors=evecs,
    )


def canonical_purification_vector(hamiltonian: np.ndarray, beta: float) -> np.ndarray:
    """Normalized doubled-register vector with amplitudes e^{-beta E_i/2} on
    paired eigenvectors; its reduced state is the thermal state at beta."""
    return sqrt_gibbs(*np.linalg.eigh(hamiltonian), beta).reshape(-1)


def _fidelity(vec: np.ndarray, model: DiscriminantModel, beta: float) -> float:
    """Squared overlap of vec with the purification of the model's H at beta."""
    target = sqrt_gibbs(model.h_eigenvalues, model.h_eigenvectors, beta).reshape(-1)
    return float(abs(np.vdot(vec, target)) ** 2)


def top_eigenvector(model: DiscriminantModel) -> tuple[float, StateVector, float]:
    """Dominant eigenpair of I + D and its fidelity to the purification.

    Returns (top eigenvalue of I + D, eigenvector, squared overlap with the
    canonical purification at the model's inverse temperature).
    """
    evals, evecs = np.linalg.eigh(model.d_matrix)
    vec = evecs[:, -1]
    n_qubits = int(round(math.log2(vec.size)))
    return 1.0 + float(evals[-1]), StateVector(vec, n_qubits), _fidelity(vec, model, model.beta)


@dataclass(frozen=True)
class AnnealingStep:
    beta: float
    sigma_t: float
    top_eigenvalue: float
    fidelity: float
    fidelity_half_beta: float
    overlap_prev: float | None


@dataclass(frozen=True)
class AnnealingReport:
    """Eigenvector tracking along a schedule of increasing beta."""

    grid: FrequencyGrid
    steps: list[AnnealingStep]
    min_overlap: float
    final_fidelity: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def annealing_path(
    hamiltonian: np.ndarray,
    jumps: JumpSet,
    m_points: int,
    betas,
    coverage_margin: float = 1.25,
) -> AnnealingReport:
    """Follow the top eigenvector of the discriminant along a beta schedule.

    The schedule must start at 0 and increase.  Consecutive squared
    overlaps are an adiabaticity proxy; the endpoint fidelity matches a
    direct build at the final beta since each step is an exact
    eigendecomposition.  Both the purification fidelity at beta and at
    beta/2 are recorded (the two normalization readings of the target).
    """
    betas = [float(b) for b in betas]
    if not betas or betas[0] != 0.0 or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("schedule must start at 0 and strictly increase")
    grid = make_grid(bohr_coverage(hamiltonian, coverage_margin), m_points)
    steps: list[AnnealingStep] = []
    prev_vec = None
    for beta in betas:
        window = gaussian_window(grid, default_sigma_t(beta, grid))
        model = build_discriminant(hamiltonian, jumps, grid, window, beta)
        top_val, state, fid = top_eigenvector(model)
        fid_half = _fidelity(state.amplitudes, model, beta / 2.0)
        overlap = (
            None
            if prev_vec is None
            else float(abs(np.vdot(prev_vec, state.amplitudes)) ** 2)
        )
        steps.append(
            AnnealingStep(
                beta=beta,
                sigma_t=window.sigma_t,
                top_eigenvalue=top_val,
                fidelity=fid,
                fidelity_half_beta=fid_half,
                overlap_prev=overlap,
            )
        )
        prev_vec = state.amplitudes
    overlaps = [s.overlap_prev for s in steps if s.overlap_prev is not None]
    return AnnealingReport(
        grid=grid,
        steps=steps,
        min_overlap=min(overlaps) if overlaps else 1.0,
        final_fidelity=steps[-1].fidelity,
    )
