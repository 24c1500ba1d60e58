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

Basis: D is held in H's eigenbasis V, where each jump's frequency component
factors (see build_discriminant): it is K^dagger D_c K, for the discriminant
D_c in the computational basis and K = kron(V, conj V).  The purification is
diagonal in V, so fidelities are read off the top eigenvector X~'s diagonal, and
only top_eigenvector's returned state is rotated out, to V X~ V^dagger.
annealing_path solves H once per path, one eigh for the grid's coverage, the jumps
rotated into V, every point's D and both fidelities, and never rotates X~ out.

Real form: S swaps the two copies, p = i*dim + k -> k*dim + i.  Swapping the
factors of a coherent term, a real rate times A (x) conj(A), or of the decay
term N (x) I + I (x) conj(N), conjugates it in either basis (S K S = conj(K)),
so D[S p, S q] = conj(D[p, q]): D maps vectorised Hermitian matrices to
vectorised Hermitian matrices.  In the orthonormal basis U of Hermitian matrix
units (e_ii, (e_ik + e_ki)/sqrt 2 and i(e_ik - e_ki)/sqrt 2 for i < k) it is the
real symmetric R = U^dagger D U, which has D's spectrum and, through U, its
eigenvectors: Lanczos on D from a generic Hermitian start is exact Lanczos on R
(from vec(I) it can stay in one symmetry sector).

Levels: discriminant-check builds D on the Laplacian's own m levels, H = L, with
the 3n single-site Paulis of the n = ceil(log2 m)-qubit register cut to their
top-left m x m block P A P (cut_pauli_jumps).  That is a choice of classical
simulation, not the paper's qubit register: the cut Paulis are not unitary, so
sum_a A_a^dagger A_a != I and the completeness identity of pauli_jumps does not
hold for them.  Criterion 6 keeps the padded route, pad_hamiltonian with
pauli_jumps on the full register.  top_eigenvector embeds the m x m eigenvector
into the register's doubled space, with zeros on the unused levels, so that it
is a state of the register; annealing_path reports no state and embeds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .swaptest import StateVector, _gibbs_amplitudes, sqrt_gibbs

# D is m^2 x m^2 for m levels: at m = 32 (1024^2, 17 MB) a default discriminant-check
# (6 steps, grid 32) takes 0.25-0.27 s at a 60 MB peak RSS on a 2-core VM, and at
# m = 26 (676^2) 0.15 s at 50 MB; build_discriminant holds D and no other array of
# its size, so at m = 64 (4096^2, 268 MB) one build takes 0.29-0.34 s and peaks at
# 311 MB, and a default run 4.5 s at 316 MB: the cap is 32 levels
MAX_DOUBLED_DIM = 1024
# make_grid spans [-norm_h, norm_h): widening the level-spacing width by a
# quarter keeps the extreme transition frequencies off the aliased edge point
BOHR_MARGIN = 1.25

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
    if not 0.0 < norm_h < math.inf:
        raise ValueError("norm_h must be positive and finite")
    if m_points < 4 or m_points % 2:
        raise ValueError("m_points must be even and >= 4")
    omega0 = 2.0 * norm_h / m_points
    t0 = 2.0 * math.pi / (m_points * omega0)
    return FrequencyGrid(m_points=m_points, omega0=omega0, t0=t0)


def bohr_coverage(hamiltonian: np.ndarray) -> float:
    """Coverage bound for make_grid: BOHR_MARGIN times the full level-spacing width,
    the rule annealing_path applies to the levels of its one eigensolve of H."""
    evals = np.linalg.eigvalsh(hamiltonian)
    return BOHR_MARGIN * float(evals[-1] - evals[0])


@dataclass(frozen=True)
class GaussianWindow:
    """Real time-window weights with unit sum of squares."""

    weights: np.ndarray
    sigma_t: float


def gaussian_window(grid: FrequencyGrid, sigma_t: float) -> GaussianWindow:
    """Gaussian weights exp(-t^2/(4 sigma_t^2)) on the time grid, normalized."""
    if not sigma_t > 0.0:
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


def pauli_jumps(n_qubits: int) -> JumpSet:
    """All 3n single-site Pauli operators on n qubits."""
    return JumpSet(operators=[
        np.kron(np.kron(np.eye(2**i), pauli), np.eye(2 ** (n_qubits - i - 1)))
        for i in range(n_qubits) for pauli in _PAULI.values()
    ])


def _smear(evals: np.ndarray, grid: FrequencyGrid, window: GaussianWindow) -> np.ndarray:
    """Smeared phases sum_t f(t) e^{i(omega + E_a - E_b)t}, shape (M, dim, dim).

    They depend only on H's levels, the grid and the window, so one stack
    serves every jump; all grid frequencies are one (omega, t) x (t, ab)
    matrix product.
    """
    gaps = (evals[:, None] - evals[None, :]).reshape(-1)
    times = grid.times
    weighted = window.weights * np.exp(1j * np.multiply.outer(grid.omegas, times))
    return (weighted @ np.exp(1j * np.multiply.outer(times, gaps))).reshape(-1, evals.size, evals.size)


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
    smear = _smear(evals, grid, window)
    # in H's eigenbasis each component is the op's matrix entrywise times the smear
    comps = evecs @ (evecs.conj().T @ op @ evecs * smear / math.sqrt(grid.m_points)) @ evecs.conj().T
    return {float(w): comps[i] for i, w in enumerate(grid.omegas)}


def metropolis_weight(omega: float, beta: float) -> float:
    """Acceptance rate min(1, e^{beta omega}); cooling transitions pass freely."""
    if not 0.0 <= beta < math.inf:  # NaN fails it too
        raise ValueError("beta must be >= 0 and finite")
    return min(1.0, math.exp(min(beta * omega, 0.0)))


def metropolis_weights(grid: FrequencyGrid, beta: float) -> np.ndarray:
    """Metropolis rates over the frequency grid; satisfies the exact ratio
    gamma(omega) / gamma(-omega) = e^{beta omega}."""
    return np.array([metropolis_weight(w, beta) for w in grid.omegas])


@dataclass(frozen=True)
class DiscriminantModel:
    """Assembled discriminant matrix and the eigensystem of H.  d_matrix is D in
    H's eigenbasis, indexed ((p, q), (p', q')): p, p' on the first copy, q, q'
    on the second, so entry p * dim + q of a vector weighs |psi_p> |conj psi_q>."""

    hamiltonian: np.ndarray
    beta: float
    d_matrix: np.ndarray
    h_eigenvalues: np.ndarray  # eigensystem of the Hamiltonian, reused downstream
    h_eigenvectors: np.ndarray

    @property
    def hermiticity_defect(self) -> float:
        """max |D - D^dagger|."""
        return float(np.abs(self.d_matrix - self.d_matrix.conj().T).max())


def _check_doubled_dim(dim: int) -> None:
    if dim * dim > MAX_DOUBLED_DIM:
        raise ValueError(
            f"doubled dimension {dim * dim} exceeds the desk-scale cap {MAX_DOUBLED_DIM}"
        )


def register_qubits(m: int) -> int:
    """Qubits of the register that embeds m levels: ceil(log2 m), at least one.

    The floor of one qubit gives the Pauli jumps a qubit to act on even for
    a single level.

    Raises ValueError if the register's doubled dimension is over the
    discriminant's cap, so a caller can reject a size before it builds
    anything of that size.
    """
    n_qubits = max((m - 1).bit_length(), 1)
    _check_doubled_dim(2**n_qubits)
    return n_qubits


def cut_pauli_jumps(m: int) -> JumpSet:
    """The 3n single-site Paulis of the register of ``register_qubits(m)``, each
    cut to its top-left m x m block P A P, so that they act on m levels alone.

    Raises ValueError, as register_qubits does, if m is over the cap.
    """
    return JumpSet(operators=[op[:m, :m] for op in pauli_jumps(register_qubits(m)).operators])


def pad_hamiltonian(laplacian: np.ndarray) -> np.ndarray:
    """Embed a Laplacian block into the register of ``register_qubits``.

    Unused basis states receive a penalty energy above the top of the
    spectrum, excluding them from the low-temperature manifold without
    touching the kernel.  Raises ValueError, before any eigensolve, if the
    padded dimension is over the discriminant's cap.
    """
    m = laplacian.shape[0]
    dim = 2 ** register_qubits(m)
    evals = np.linalg.eigvalsh(np.asarray(laplacian, dtype=float))
    penalty = float(evals[-1] + 10.0 * (evals[-1] - evals[0] + 1.0))
    padded = np.full(dim, penalty, dtype=float)
    out = np.diag(padded).astype(complex)
    out[:m, :m] = laplacian
    return out


def _eigensystem(hamiltonian: np.ndarray, jumps: JumpSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H's levels and eigenvectors V and the jumps in V, axes (a, p, p'); the cap is
    checked before the eigensolve."""
    _check_doubled_dim(len(hamiltonian))
    evals, evecs = np.linalg.eigh(hamiltonian)
    return evals, evecs, evecs.conj().T @ np.asarray(jumps.operators) @ evecs


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
    sqrt(gamma(omega) gamma(-omega)) = e^{-beta |omega| / 2} (one of the two
    rates is 1), and the decay term subtracts half the
    rate-weighted normalizations on each side.  The lone unpaired grid
    frequency (-M omega0 / 2, whose mirror aliases onto itself) also uses
    the symmetrized rate in its decay term; with the bare rate that single
    term could tip the matrix above zero.

    The sums run in H's eigenbasis, where A_a(omega) is the jump's matrix
    times the smear at omega entrywise, so every sum over (a, omega) of a
    product of two entries is a sum over a times a sum over omega: the
    coherent term is the entrywise product of a J-wide and an M-wide Gram,
    not one (J M)-wide Gram.  D is kept in that basis (see DiscriminantModel).
    """
    evals, evecs, in_basis = _eigensystem(hamiltonian, jumps)
    return DiscriminantModel(hamiltonian, beta, _discriminant(evals, in_basis, grid, window, beta), evals, evecs)


def _discriminant(
    evals: np.ndarray,
    in_basis: np.ndarray,
    grid: FrequencyGrid,
    window: GaussianWindow,
    beta: float,
) -> np.ndarray:
    """D in H's eigenbasis (see build_discriminant), from H's levels and the jumps
    rotated into its eigenvectors, in_basis[a] = V^dagger A_a V."""
    dim = len(evals)
    gammas = metropolis_weights(grid, beta)
    sym_rates = np.exp(-0.5 * beta * np.abs(grid.omegas))
    decay_rates = gammas.copy()
    decay_rates[0] = sym_rates[0]
    # 1/M (the 1/sqrt M of A and of conj A) and D's 1/J ride on the rates
    scale = 1.0 / (grid.m_points * len(in_basis))
    smear = _smear(evals, grid, window)  # axes (omega, p, p')
    # decay term N = sum rate A^dagger A: over row p, the jumps' Gram of row p
    # times the rated smears' Gram of row p, entrywise
    jump_rows, smear_rows = in_basis.transpose(1, 0, 2), smear.transpose(1, 0, 2)
    norm_term = np.einsum(
        "pab,pab->ab",
        jump_rows.conj().transpose(0, 2, 1) @ jump_rows,
        (smear_rows.conj().transpose(0, 2, 1) * (decay_rates * scale)) @ smear_rows,
    )
    # coherent term sum rate A[p, p'] conj(A[q, q']) at ((p, p'), (q, q')): the
    # jumps' Gram (inner dimension J) times the rated smears' Gram (M), entrywise
    flat = in_basis.reshape(len(in_basis), -1)
    d_tilde = flat.T @ flat.conj()
    smear = smear.reshape(grid.m_points, -1)
    rated, smear_conj = smear.T * (sym_rates * scale), smear.conj()
    # the M-wide Gram by blocks of rows, so that D is the only array of its size
    for i in range(0, len(d_tilde), 128):
        d_tilde[i : i + 128] *= rated[i : i + 128] @ smear_conj
    # N x I puts N[p, p'] on the q = q' entries, I x conj(N) conj(N)[q, q'] on p = p'
    blocks = d_tilde.reshape((dim,) * 4)
    diag = np.arange(dim)
    blocks[:, :, diag, diag] -= 0.5 * norm_term[:, :, None]
    blocks[diag, diag] -= 0.5 * norm_term.conj()
    # reorder in place to ((p, q), (p', q')), one p-block of axes (p', q, q') at a time
    for block in blocks:
        block[...] = block.transpose(1, 0, 2).copy()
    return d_tilde


def canonical_purification_vector(hamiltonian: np.ndarray, beta: float) -> np.ndarray:
    """Normalized doubled-register vector with amplitudes e^{-beta E_i/2} on
    paired eigenvectors; its reduced state is the thermal state at beta."""
    return sqrt_gibbs(*np.linalg.eigh(hamiltonian), beta).reshape(-1)


def _fidelity(vec: np.ndarray, evals: np.ndarray, beta: float) -> float:
    """Squared overlap of X~ (vec, in H's eigenbasis) with the purification at beta.

    In that basis the purification has the amplitudes w_i on |i>|i> alone, so only
    X~'s diagonal enters, |sum_i conj(X~_ii) w_i|^2: V is unitary, so this is the
    overlap of V X~ V^dagger with the purification in the computational basis.
    """
    return float(abs(np.vdot(vec[:: len(evals) + 1], _gibbs_amplitudes(evals, beta))) ** 2)


def _top_eigenpair(d_matrix: np.ndarray, *, start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Top eigenvalue and unit eigenvector of D by Lanczos (Paige 1971) on its real form.

    The start is a fixed random Hermitian matrix, or, given ``start`` (a vector in
    H's eigenbasis, such as the previous annealing point's eigenvector), that vector
    plus 1e-3 of the random one, each normalised, made Hermitian: the random part
    keeps it out of any one symmetry sector (vec(I) alone can sit in one).  The
    Ritz pair is tested against beta_j |s_j| <= 1e-12 max |theta| after every
    second step, after step dim^2 and after a step that exhausts the Krylov space
    (beta_j = 0), so the returned pair always meets that rule, at most one step
    past the first that does.  The tridiagonal eigh behind the test costs more than
    the product with D: on a default octahedron discriminant-check (12 levels, grid
    32) the six warm-started solves make 64 eighs in 128 steps and take 8.3-8.6 ms,
    where cold starts tested at every step made 148 of each and took 11.5-11.8 ms.
    """
    n, dim = len(d_matrix), math.isqrt(len(d_matrix))
    re, im = np.random.default_rng(0).normal(size=(2, dim, dim))
    w = re + re.T + 1j * (im - im.T)
    if start is not None:
        w = start.reshape(dim, dim) / np.linalg.norm(start) + 1e-3 * w / np.linalg.norm(w)
        w = (w + w.conj().T) / 2
    w = w.view(float).reshape(-1)
    # Krylov vectors as rows of float views, whose dot products are the real
    # form's inner products; pages are touched only as rows are written
    rows = np.empty((n, 2 * n))
    # the Lanczos tridiagonal, written one row at a time; the eigh below copies its block
    t, beta = np.zeros((n + 1, n + 1)), np.linalg.norm(w)
    for j in range(n):
        rows[j] = w / beta
        w = (d_matrix @ rows[j].view(complex)).reshape(dim, dim)
        # D v is Hermitian only up to rounding, and reorthogonalising in the real
        # form never removes the rest, which D would amplify step by step
        w = ((w + w.conj().T) / 2).view(float).reshape(-1)
        t[j, j] = rows[j] @ w
        for _ in range(2):  # full reorthogonalisation, twice
            w -= (rows[: j + 1] @ w) @ rows[: j + 1]
        beta = t[j, j + 1] = t[j + 1, j] = np.linalg.norm(w)
        # the test schedule of the docstring; at beta = 0 the next step's w / beta
        # would divide by zero
        if j % 2 == 0 and j + 1 < n and beta > 0.0:
            continue
        thetas, s = np.linalg.eigh(t[: j + 1, : j + 1])
        if beta * abs(s[-1, -1]) <= 1e-12 * np.abs(thetas).max():
            return float(thetas[-1]), (s[:, -1] @ rows[: j + 1]).view(complex)
    raise ArithmeticError(f"Lanczos on the discriminant missed its residual tolerance in {n} steps")


def top_eigenvector(model: DiscriminantModel) -> tuple[float, StateVector, float]:
    """Dominant eigenpair of I + D and its fidelity to the purification.

    Returns (top eigenvalue of I + D, eigenvector X rotated from H's eigenbasis to
    the computational basis, squared overlap with the canonical purification at
    the model's inverse temperature).  For a dimension m that is not a power of
    two, X (m x m) sits in the top-left block of the doubled space of the
    2^ceil(log2 m) register, with zeros on the unused levels.
    """
    dim = len(model.hamiltonian)
    val, vec = _top_eigenpair(model.d_matrix)
    evecs = model.h_eigenvectors
    x = np.pad(evecs @ vec.reshape(dim, dim) @ evecs.conj().T, (0, (1 << (dim - 1).bit_length()) - dim))
    return 1.0 + val, StateVector(x.reshape(-1)), _fidelity(vec, model.h_eigenvalues, model.beta)


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


def annealing_path(
    hamiltonian: np.ndarray,
    jumps: JumpSet,
    m_points: int,
    betas,
) -> AnnealingReport:
    """Follow the top eigenvector of the discriminant along a beta schedule.

    The schedule must start at 0 and increase.  Consecutive squared overlaps are an
    adiabaticity proxy; the endpoint fidelity matches a direct build at the final beta,
    each step being solved to a 1e-12 residual.  The purification fidelity is recorded
    at beta and at beta/2 (the two normalization readings of the target).

    H, and so its eigenbasis V, is the same at every point, so the path solves H once
    and stays in V: the grid's coverage, every point's D and both fidelity readings
    come from that one eigensystem, and the jumps are rotated into V once.  X~ is never
    rotated out: the fidelities are read off its diagonal (see _fidelity).  Each
    Lanczos run starts from the previous point's eigenvector X~, and consecutive
    overlaps are |<X~_prev, X~>|^2, those of X = V X~ V^dagger as V is unitary.  On the
    default 6-point schedule of the octahedron's 12 edge levels at grid 32 the six
    solves take 128 Lanczos steps where cold starts take 148.
    """
    betas = [float(b) for b in betas]
    if not betas or betas[0] != 0.0 or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("schedule must start at 0 and strictly increase")
    evals, _, in_basis = _eigensystem(hamiltonian, jumps)
    grid = make_grid(BOHR_MARGIN * float(evals[-1] - evals[0]), m_points)
    steps: list[AnnealingStep] = []
    prev = None
    for beta in betas:
        window = gaussian_window(grid, default_sigma_t(beta, grid))
        # D lives only through the solve, so no two points' D are held at once
        val, vec = _top_eigenpair(_discriminant(evals, in_basis, grid, window, beta), start=prev)
        steps.append(
            AnnealingStep(
                beta=beta,
                sigma_t=window.sigma_t,
                top_eigenvalue=1.0 + val,
                fidelity=_fidelity(vec, evals, beta),
                fidelity_half_beta=_fidelity(vec, evals, beta / 2.0),
                overlap_prev=None if prev is None else float(abs(np.vdot(prev, vec)) ** 2),
            )
        )
        prev = vec
    overlaps = [s.overlap_prev for s in steps if s.overlap_prev is not None]
    return AnnealingReport(
        grid=grid,
        steps=steps,
        min_overlap=min(overlaps) if overlaps else 1.0,
        final_fidelity=steps[-1].fidelity,
    )
