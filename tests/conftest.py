import itertools

import numpy as np
import pytest

from thermaltda.complexes import (
    CORPUS,
    SimplicialComplex,
    from_simplices,
    random_complex,
)

# hand-checked Betti numbers of the bundled corpus, by dimension
CORPUS_BETTI = {
    "hollow-triangle": {0: 1, 1: 1},
    "filled-triangle": {0: 1, 1: 0, 2: 0},
    "tetrahedron-boundary": {0: 1, 1: 0, 2: 1},
    "two-components": {0: 2, 1: 0},
    "octahedron-boundary": {0: 1, 1: 0, 2: 1},
}


@pytest.fixture(scope="session")
def corpus() -> dict[str, SimplicialComplex]:
    return {name: make() for name, make in CORPUS.items()}


def torus(n: int) -> SimplicialComplex:
    """The n-torus (S^1)^n, each circle on 3 vertices, by the staircase
    triangulation: one n-simplex per vertex and order of the n unit steps.
    Kunneth gives b_k = C(n, k)."""
    tops = []
    for start in itertools.product(range(3), repeat=n):
        for order in itertools.permutations(range(n)):
            walk = [start]
            for axis in order:
                step = list(walk[-1])
                step[axis] = (step[axis] + 1) % 3
                walk.append(tuple(step))
            tops.append([sum(c * 3**i for i, c in enumerate(v)) for v in walk])
    return from_simplices(3**n, tops)


def klein_bottle(size: int = 5) -> SimplicialComplex:
    """A size x size grid of squares, each cut along its diagonal, with one
    pair of sides glued straight and the other with a flip.  Its rational
    Betti numbers are (1, 1, 0); the Z/2 in H_1 makes them (1, 2, 1) over GF(2)."""

    def vertex(i, j):
        if i == size:  # crossing this seam reflects the other coordinate
            i, j = 0, -j
        return i * size + j % size

    tops = []
    for i, j in itertools.product(range(size), repeat=2):
        tops.append((vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1)))
        tops.append((vertex(i, j), vertex(i, j + 1), vertex(i + 1, j + 1)))
    return from_simplices(size * size, tops)


def sphere(n: int) -> SimplicialComplex:
    """The n-sphere as the boundary of the (n+1)-simplex."""
    return from_simplices(n + 2, itertools.combinations(range(n + 2), n + 1))


def wedge(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """The wedge sum a v b: vertex 0 of b glued to vertex 0 of a, b's other
    vertices numbered after a's.  Above dimension 0 the Betti numbers add."""

    def vertex(v):
        return v + a.n_vertices - 1 if v else 0

    tops = [s for simplices in a.sets.values() for s in simplices]
    tops += [tuple(map(vertex, s)) for simplices in b.sets.values() for s in simplices]
    return from_simplices(a.n_vertices + b.n_vertices - 1, tops)


# complexes whose Betti numbers topology fixes, independent of both exact
# oracles, with their simplex counts by dimension
TOPOLOGY = {
    "T2": (torus(2), (1, 2, 1), (9, 27, 18)),
    "T3": (torus(3), (1, 3, 3, 1), (27, 189, 324, 162)),
    "klein-bottle": (klein_bottle(), (1, 1, 0), (25, 75, 50)),
    "S3": (sphere(3), (1, 0, 0, 1), (5, 10, 10, 5)),
    "S4": (sphere(4), (1, 0, 0, 0, 1), (6, 15, 20, 15, 6)),
    "T2-v-S2": (wedge(torus(2), sphere(2)), (1, 2, 2), (12, 33, 22)),
    "klein-bottle-v-S1": (wedge(klein_bottle(), sphere(1)), (1, 2, 0), (27, 78, 50)),
    "S3-v-T2": (wedge(sphere(3), torus(2)), (1, 2, 1, 1), (13, 37, 28, 5)),
}


def random_complex_family(count: int, max_vertices: int = 8, seed: int = 1234):
    """Deterministic family of random clique complexes for property tests."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(3, max_vertices + 1))
        p = float(rng.uniform(0.2, 0.95))
        out.append(random_complex(n, p, max_dim=n - 1, seed=1000 + i))
    return out


def random_spectra(count: int, seed: int = 99):
    """Random PSD spectra (some with kernels) as plain Spectrum objects."""
    from thermaltda.homology import Spectrum

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 30))
        kernel = int(rng.integers(0, min(4, m)))
        lam = np.sort(rng.uniform(0.05, 50.0, size=m - kernel))
        lam = np.concatenate([np.zeros(kernel), lam])
        tol = 1e-8 * max(1.0, lam[-1] if lam.size else 1.0)
        out.append(Spectrum(eigenvalues=lam, tol_kernel=tol))
    return out


def reduced_density(state, n_system: int) -> np.ndarray:
    """Reduced state of the leading n_system qubits of a StateVector."""
    rest = state.n_qubits - n_system
    mat = state.amplitudes.reshape(2**n_system, 2**rest)
    return mat @ mat.conj().T


def svd_rank(matrix) -> int:
    """Rank of a boundary matrix from its singular values above 1e-8 * max(1,
    largest): the dense float reference for the GF(p) reduction."""
    if matrix.shape[0] == 0 or matrix.shape[1] == 0:
        return 0
    svals = np.linalg.svd(matrix.toarray().astype(float), compute_uv=False)
    return int(np.count_nonzero(svals > 1e-8 * max(1.0, float(svals[0]))))


def heisenberg(op: np.ndarray, hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """Time-evolved operator e^{iHt} A e^{-iHt}, exact via eigendecomposition."""
    if op.shape != hamiltonian.shape:
        raise ValueError("operator and Hamiltonian shapes differ")
    evals, evecs = np.linalg.eigh(hamiltonian)
    phases = np.exp(1j * evals * t)
    in_basis = evecs.conj().T @ op @ evecs
    evolved = (phases[:, None] * in_basis) * phases.conj()[None, :]
    return evecs @ evolved @ evecs.conj().T
