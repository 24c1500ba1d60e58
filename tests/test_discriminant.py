import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import heisenberg
from thermaltda.complexes import CORPUS, random_complex
from thermaltda.homology import combinatorial_laplacian
from thermaltda import discriminant
from thermaltda.swaptest import sqrt_gibbs
from thermaltda.discriminant import (
    JumpSet,
    _top_eigenpair,
    annealing_path,
    bohr_coverage,
    build_discriminant,
    canonical_purification_vector,
    cut_pauli_jumps,
    default_sigma_t,
    gaussian_window,
    make_grid,
    metropolis_weight,
    metropolis_weights,
    operator_fourier,
    pad_hamiltonian,
    pauli_jumps,
    register_qubits,
    top_eigenvector,
)

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

HOLLOW_L1 = np.array([[2.0, 1.0, -1.0], [1.0, 2.0, 1.0], [-1.0, 1.0, 2.0]])


def flat_window(grid):
    # sigma far beyond the window span: weights land at exactly 1/sqrt(M)
    return gaussian_window(grid, 1e12)


class TestFrequencyGrid:
    def test_norm_three_m_eight(self):
        grid = make_grid(3.0, 8)
        assert grid.omega0 == pytest.approx(0.75, abs=0)
        assert grid.t0 == pytest.approx(math.pi / 3.0, rel=1e-15)

    def test_norm_one_m_four(self):
        grid = make_grid(1.0, 4)
        assert grid.omega0 == pytest.approx(0.5, abs=0)
        assert grid.t0 == pytest.approx(math.pi, rel=1e-15)

    @pytest.mark.parametrize("norm_h,m", [(3.0, 8), (1.0, 4), (17.3, 64)])
    def test_conjugacy_identity(self, norm_h, m):
        grid = make_grid(norm_h, m)
        assert grid.omega0 * grid.t0 * m == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert len(grid.omegas) == m and len(grid.times) == m
        assert m * grid.omega0 / 2.0 >= norm_h - 1e-12

    def test_bad_m(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 7)
        with pytest.raises(ValueError):
            make_grid(1.0, 2)
        for norm_h in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="norm_h"):
                make_grid(norm_h, 16)


class TestGaussianWindow:
    def test_unit_square_sum(self):
        grid = make_grid(2.0, 16)
        for sigma in (0.1, 1.0, 10.0):
            win = gaussian_window(grid, sigma)
            assert (win.weights**2).sum() == pytest.approx(1.0, abs=1e-12)

    def test_flat_limit(self):
        grid = make_grid(2.0, 16)
        win = flat_window(grid)
        np.testing.assert_allclose(win.weights, np.full(16, 0.25), atol=1e-14)

    def test_narrow_limit_concentrates_at_zero(self):
        grid = make_grid(2.0, 16)
        win = gaussian_window(grid, grid.t0 / 100.0)
        assert win.weights[8] == pytest.approx(1.0, abs=1e-12)  # t = 0 entry

    def test_rejects_nonpositive_sigma(self):
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                gaussian_window(make_grid(1.0, 8), sigma)


class TestHeisenberg:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.1, -2.0])
    def test_single_qubit_closed_form(self, t):
        # e^{iZt} X e^{-iZt} = cos(2t) X - sin(2t) Y
        expected = math.cos(2 * t) * X - math.sin(2 * t) * Y
        np.testing.assert_allclose(heisenberg(X, Z, t), expected, atol=1e-12)

    def test_identity_commutes(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 4))
        h = (h + h.T).astype(complex)
        np.testing.assert_allclose(heisenberg(np.eye(4, dtype=complex), h, 0.7), np.eye(4), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            heisenberg(X, np.eye(4, dtype=complex), 1.0)


class TestOperatorFourier:
    def test_parseval(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = rng.normal(size=(4, 4))
        h = (h + h.T).astype(complex)
        grid = make_grid(bohr_coverage(h), 16)
        comps = operator_fourier(a, h, grid, gaussian_window(grid, 1.0))
        total = sum(np.linalg.norm(c, "fro") ** 2 for c in comps.values())
        assert total == pytest.approx(np.linalg.norm(a, "fro") ** 2, rel=1e-8)

    def test_completeness_for_pauli_jumps(self):
        grid = make_grid(2.5, 16)
        win = gaussian_window(grid, 2.0)
        for op in (X, Y, Z):
            comps = operator_fourier(op, Z, grid, win)
            total = sum(c.conj().T @ c for c in comps.values())
            assert np.abs(total - np.eye(2)).max() <= 1e-8

    def test_adjoint_pairing_exact(self):
        grid = make_grid(2.5, 16)
        win = gaussian_window(grid, 2.0)
        comps = operator_fourier(X, Z, grid, win)
        for w in grid.omegas[1:]:  # the lone edge frequency has no mirror on the grid
            defect = np.abs(comps[float(w)].conj().T - comps[float(-w)]).max()
            assert defect <= 1e-13

    @pytest.mark.parametrize("m,sigma", [(16, 2.0), (32, 4.0)])
    def test_weight_concentrates_at_level_spacings(self, m, sigma):
        # X exchanges the Z levels at spacing 2; >= 95% of the squared
        # Frobenius weight lands within one grid step of +-2
        grid = make_grid(4.0, m)
        comps = operator_fourier(X, Z, grid, gaussian_window(grid, sigma))
        total = sum(np.linalg.norm(c, "fro") ** 2 for c in comps.values())
        near = sum(
            np.linalg.norm(c, "fro") ** 2
            for w, c in comps.items()
            if min(abs(w - 2.0), abs(w + 2.0)) <= grid.omega0 + 1e-12
        )
        assert near / total >= 0.95

    def test_identity_operator_keeps_zero_frequency(self):
        grid = make_grid(2.0, 16)
        comps = operator_fourier(np.eye(2, dtype=complex), Z, grid, flat_window(grid))
        for w, c in comps.items():
            weight = np.linalg.norm(c, "fro") ** 2
            if w == 0.0:
                assert weight == pytest.approx(2.0, rel=1e-12)
            else:
                assert weight <= 1e-20


class TestMetropolisWeights:
    def test_spec_values(self):
        assert metropolis_weight(-2.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert metropolis_weight(2.0, 1.0) == 1.0
        assert metropolis_weight(0.0, 5.0) == 1.0

    def test_beta_zero_all_unity(self):
        grid = make_grid(3.0, 16)
        np.testing.assert_array_equal(metropolis_weights(grid, 0.0), np.ones(16))

    def test_rates_in_unit_interval(self):
        gammas = metropolis_weights(make_grid(bohr_coverage(Z), 16), 0.8)
        assert np.all(gammas > 0.0) and np.all(gammas <= 1.0)

    @pytest.mark.parametrize("beta", [0.0, 0.37, 1.0, 2.5])
    def test_detailed_balance_ratio_exact(self, beta):
        grid = make_grid(3.0, 32)
        for w in grid.omegas:
            lhs = metropolis_weight(float(w), beta) * math.exp(-beta * float(w))
            rhs = metropolis_weight(-float(w), beta)
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=0.0)

    def test_negative_beta_rejected(self):
        for beta in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta must be >= 0"):
                metropolis_weight(1.0, beta)


class TestPadHamiltonian:
    def test_hollow_triangle_penalty(self):
        padded = pad_hamiltonian(HOLLOW_L1)
        assert padded.shape == (4, 4)
        np.testing.assert_allclose(padded[:3, :3].real, HOLLOW_L1)
        # top eigenvalue 3, kernel at 0: penalty 3 + 10 * (3 - 0 + 1)
        assert padded[3, 3] == pytest.approx(43.0)
        assert np.all(padded[3, :3] == 0) and np.all(padded[:3, 3] == 0)

    def test_power_of_two_unchanged(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(pad_hamiltonian(h).real, h)

    def test_min_qubits(self):
        padded = pad_hamiltonian(np.array([[3.0]]))
        assert padded.shape == (2, 2) and padded[1, 1].real > 3.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 31, 32])
    def test_register_qubits_is_ceil_log2(self, m):
        assert register_qubits(m) == max(math.ceil(math.log2(m)), 1)

    def test_dimension_cap_before_eigensolve(self, monkeypatch):
        # 33 to 64 levels pad to 64, a 4096-dim discriminant, and 65 to 128:
        # both over the cap of 1024 (32 levels)
        def fail(*args, **kwargs):
            raise AssertionError("eigensolve called before the cap check")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        for m in (33, 64, 65):
            with pytest.raises(ValueError, match="cap"):
                pad_hamiltonian(np.eye(m))
            with pytest.raises(ValueError, match="cap"):
                register_qubits(m)
        # a 33-level H is over the cap whatever its jumps
        with pytest.raises(ValueError, match="cap"):
            annealing_path(np.eye(33, dtype=complex), JumpSet(operators=[np.eye(33)]), 16, [0.0, 1.0])


def kron_loop_discriminant(h, jumps, grid, window, beta, basis):
    """Reference assembly, one Kronecker product per jump and frequency, with
    A(omega) summed directly over the time grid of Heisenberg-picture jumps
    and rotated to basis^dagger A(omega) basis."""
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    d_matrix = np.zeros((dim * dim, dim * dim), dtype=complex)
    for op in jumps.operators:
        evolved = [heisenberg(op, h, t) for t in grid.times]
        for idx, omega in enumerate(grid.omegas):
            a_w = sum(
                f * np.exp(1j * omega * t) * a_t
                for f, t, a_t in zip(window.weights, grid.times, evolved)
            ) / math.sqrt(grid.m_points)
            a_w = basis.conj().T @ a_w @ basis
            rate = metropolis_weight(omega, beta)
            sym_rate = math.sqrt(rate * metropolis_weight(-omega, beta))
            decay_rate = sym_rate if idx == 0 else rate
            norm_term = a_w.conj().T @ a_w
            d_matrix += sym_rate * np.kron(a_w, a_w.conj())
            d_matrix -= 0.5 * decay_rate * (np.kron(norm_term, eye) + np.kron(eye, norm_term.conj()))
    return d_matrix / len(jumps.operators)


class TestDiscriminant:
    @pytest.mark.parametrize("beta", [0.0, 0.8, 3.0])
    @pytest.mark.parametrize("h,m", [(Z, 8), (pad_hamiltonian(HOLLOW_L1), 16)], ids=["Z", "hollow"])
    def test_matches_kron_loop_reference(self, h, m, beta):
        jumps = pauli_jumps(int(math.log2(h.shape[0])))
        grid = make_grid(bohr_coverage(h), m)
        win = gaussian_window(grid, default_sigma_t(beta, grid))
        model = build_discriminant(h, jumps, grid, win, beta)
        expected = kron_loop_discriminant(h, jumps, grid, win, beta, model.h_eigenvectors)
        assert np.abs(model.d_matrix - expected).max() <= 1e-12

    def test_hermitian_and_negative(self):
        jumps = pauli_jumps(1)
        for beta in (0.0, 0.5, 2.0):
            for m in (16, 32):
                grid = make_grid(bohr_coverage(Z), m)
                win = gaussian_window(grid, default_sigma_t(beta, grid))
                model = build_discriminant(Z, jumps, grid, win, beta)
                assert model.d_matrix.shape == (4, 4)
                assert model.hermiticity_defect <= 1e-10
                assert np.linalg.eigvalsh(model.d_matrix)[-1] <= 1e-8

    def test_dimension_cap(self):
        h = np.diag(np.arange(128, dtype=float)).astype(complex)
        grid = make_grid(130.0, 8)
        with pytest.raises(ValueError, match="cap"):
            build_discriminant(h, pauli_jumps(7), grid, flat_window(grid), 1.0)

    def test_beta_zero_fixed_point_is_maximally_entangled(self):
        jumps = pauli_jumps(1)
        grid = make_grid(bohr_coverage(Z), 16)
        win = gaussian_window(grid, default_sigma_t(0.0, grid))
        model = build_discriminant(Z, jumps, grid, win, 0.0)
        val, vec, fid = top_eigenvector(model)
        target = np.zeros(4)
        target[0] = target[3] = 1.0 / math.sqrt(2.0)
        assert abs(np.vdot(vec.amplitudes, target)) ** 2 >= 0.99
        assert fid >= 0.99  # at beta=0 the purification is the entangled pair

    def test_exact_resolution_recovers_purification(self):
        # flat window + all level spacings on the grid: the fixed point is
        # the canonical purification exactly
        grid = make_grid(4.0, 16)  # omega0 = 0.5; spacing 2 = 4 omega0, interior
        jumps = pauli_jumps(1)
        model = build_discriminant(Z, jumps, grid, flat_window(grid), 1.3)
        val, vec, fid = top_eigenvector(model)
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-10)


class TestTopEigenvector:
    def test_embeds_a_non_power_of_two_register(self):
        # 3 levels: X (3 x 3) in the top-left block of the 2-qubit register's
        # 4 x 4 doubled space, zeros on the unused level
        rng = np.random.default_rng(0)
        grid = make_grid(bohr_coverage(HOLLOW_L1), 16)
        jumps = JumpSet([random_hermitian(rng, 3)])
        model = build_discriminant(HOLLOW_L1.astype(complex), jumps, grid, flat_window(grid), 1.0)
        top_val, state, fid = top_eigenvector(model)
        val, vec = _top_eigenpair(model.d_matrix)
        v = model.h_eigenvectors
        x = v @ vec.reshape(3, 3) @ v.conj().T
        amps = state.amplitudes.reshape(4, 4)
        assert top_val == 1.0 + val and state.n_qubits == 4
        np.testing.assert_array_equal(amps[:3, :3], x)
        assert not amps[3].any() and not amps[:, 3].any()
        # the eigenbasis formula exactly, and the computational-basis overlap to rounding
        weights = np.exp(-0.5 * (model.h_eigenvalues - model.h_eigenvalues[0]))
        assert fid == abs(np.vdot(vec[::4], weights / np.linalg.norm(weights))) ** 2
        target = sqrt_gibbs(model.h_eigenvalues, v, 1.0).reshape(-1)
        assert abs(fid - abs(np.vdot(x.reshape(-1), target)) ** 2) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
    def test_fidelity_is_the_computational_basis_overlap(self, dim, beta):
        # read off X~'s diagonal in H's eigenbasis, it is the overlap of V X~ V^dagger
        # with the purification built in the computational basis
        rng = np.random.default_rng(dim)
        evals, v = np.linalg.eigh(random_hermitian(rng, dim))
        x_tilde = random_hermitian(rng, dim)
        x_tilde /= np.linalg.norm(x_tilde)
        rotated = v @ x_tilde @ v.conj().T
        expected = abs(np.vdot(rotated, sqrt_gibbs(evals, v, beta))) ** 2
        assert abs(discriminant._fidelity(x_tilde.reshape(-1), evals, beta) - expected) <= 1e-14

    def test_single_qubit_default_window_high_fidelity(self):
        jumps = pauli_jumps(1)
        grid = make_grid(bohr_coverage(Z), 32)
        win = gaussian_window(grid, default_sigma_t(2.0, grid))
        model = build_discriminant(Z, jumps, grid, win, 2.0)
        _, _, fid = top_eigenvector(model)
        assert fid >= 0.99

    def test_top_eigenvalue_near_one(self):
        jumps = pauli_jumps(1)
        for beta in (0.0, 1.0, 2.0):
            grid = make_grid(bohr_coverage(Z), 32)
            win = gaussian_window(grid, default_sigma_t(beta, grid))
            val, _, _ = top_eigenvector(build_discriminant(Z, jumps, grid, win, beta))
            assert 0.95 <= val <= 1.0 + 1e-12

    def test_fidelity_non_decreasing_in_grid_size(self):
        jumps = pauli_jumps(2)
        padded = pad_hamiltonian(HOLLOW_L1)
        fids = []
        for m in (16, 32, 64):
            grid = make_grid(bohr_coverage(padded), m)
            win = gaussian_window(grid, default_sigma_t(1.0, grid))
            _, _, fid = top_eigenvector(build_discriminant(padded, jumps, grid, win, 1.0))
            fids.append(fid)
        assert fids[1] >= fids[0] - 1e-3
        assert fids[2] >= fids[1] - 1e-3


OCTAHEDRON = CORPUS["octahedron-boundary"]()


def cli_scale_model(cx, beta):
    """The model a default discriminant-check at k = 1 builds at beta: H = L on
    its m levels, the register's Paulis cut to m x m, grid 32."""
    h = combinatorial_laplacian(cx, 1).astype(complex)
    grid = make_grid(bohr_coverage(h), 32)
    win = gaussian_window(grid, default_sigma_t(beta, grid))
    return build_discriminant(h, cut_pauli_jumps(len(h)), grid, win, beta)


def copy_swap(dim):
    """The permutation S of the doubled index: i * dim + k -> k * dim + i."""
    return np.arange(dim * dim).reshape(dim, dim).T.reshape(-1)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def hermitian_units(dim):
    """Columns vec(e_ii), vec(e_ik + e_ki)/sqrt 2 and vec(i(e_ik - e_ki))/sqrt 2, i < k:
    an orthonormal basis of the doubled space whose real span is the Hermitian matrices."""
    cols = []
    for i in range(dim):
        for k in range(i, dim):
            for phase in ((1.0,) if i == k else (1.0, 1j)):
                unit = np.zeros((dim, dim), dtype=complex)
                unit[i, k], unit[k, i] = phase, np.conj(phase)
                cols.append(unit.reshape(-1) / np.linalg.norm(unit))
    return np.array(cols).T


class TestRealForm:
    """D[S p, S q] = conj(D[p, q]) makes D real in the basis of Hermitian matrix
    units; Lanczos from a Hermitian start runs in that real form, and must
    agree with the complex eigensolve of D."""

    @pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize(
        "h",
        [
            Z,
            pad_hamiltonian(HOLLOW_L1),
            pad_hamiltonian(combinatorial_laplacian(CORPUS["octahedron-boundary"](), 1)),
        ],
        ids=["Z", "hollow", "octahedron"],
    )
    def test_copy_swap_conjugates(self, h, beta):
        dim = h.shape[0]
        grid = make_grid(bohr_coverage(h), 16)
        win = gaussian_window(grid, default_sigma_t(beta, grid))
        d = build_discriminant(h, pauli_jumps(int(math.log2(dim))), grid, win, beta).d_matrix
        s = copy_swap(dim)
        assert np.abs(d[s][:, s] - d.conj()).max() <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        n_jumps=st.integers(1, 3),
        beta=st.floats(0.0, 4.0),
        m=st.sampled_from([8, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_complex_eigh(self, dim, n_jumps, beta, m, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        jumps = JumpSet([random_hermitian(rng, dim) for _ in range(n_jumps)])
        # the unit margin keeps the grid's span positive for a single level
        grid = make_grid(bohr_coverage(h) + 1.0, m)
        win = gaussian_window(grid, default_sigma_t(beta, grid))
        model = build_discriminant(h, jumps, grid, win, beta)
        val, vec = _top_eigenpair(model.d_matrix)
        evals, evecs = np.linalg.eigh(model.d_matrix)
        assert abs(val - evals[-1]) <= 1e-12
        power_of_two = dim & (dim - 1) == 0
        if power_of_two:  # the public tuple: the vector rotated to V X~ V^dagger
            top_val, state, fid = top_eigenvector(model)
            assert top_val == 1.0 + val
            v = model.h_eigenvectors
            np.testing.assert_array_equal(state.amplitudes, (v @ vec.reshape(dim, dim) @ v.conj().T).reshape(-1))
        if dim > 1 and evals[-1] - evals[-2] <= 1e-6:
            return  # a near-degenerate top has no unique vector to compare
        top = evecs[:, -1]
        assert abs(np.vdot(top, vec)) ** 2 >= 1.0 - 1e-10
        # the purification in H's eigenbasis: the Gibbs weights on the diagonal
        target = sqrt_gibbs(model.h_eigenvalues, np.eye(dim), beta).reshape(-1)
        fid = abs(np.vdot(vec, target)) ** 2
        assert abs(fid - abs(np.vdot(top, target)) ** 2) <= 1e-10
        if power_of_two:  # the public state against the computational-basis reference
            reference = np.linalg.eigh(fourier_gram_discriminant(h, jumps, grid, win, beta, np.eye(dim)))[1][:, -1]
            assert abs(np.vdot(reference, state.amplitudes)) ** 2 >= 1.0 - 1e-10

    @pytest.mark.parametrize(
        "complex_name,beta",
        [("octahedron", 0.0), ("octahedron", 1.0), ("octahedron", 3.0), ("dim32", 1.0), ("cap", 1.0)],
    )
    def test_matches_complex_eigh_at_cli_scale(self, complex_name, beta):
        # dim32: 26 edges, so a 26-level H and a 676 x 676 D; cap: 32 edges, a 1024 x 1024 D
        cx = {
            "octahedron": lambda: OCTAHEDRON,
            "dim32": lambda: random_complex(9, 0.55, 2, 8),
            "cap": lambda: random_complex(9, 0.8, 2, 8),
        }[complex_name]()
        d = cli_scale_model(cx, beta).d_matrix
        evals, evecs = np.linalg.eigh(d)
        # cold, and warm from the top vector of a neighbouring beta, as annealing_path starts
        neighbour = _top_eigenpair(cli_scale_model(cx, beta + 0.2).d_matrix)[1]
        for start in (None, neighbour):
            val, vec = _top_eigenpair(d, start=start)
            assert abs(val - evals[-1]) <= 1e-12
            assert abs(np.vdot(evecs[:, -1], vec)) ** 2 >= 1.0 - 1e-10
            assert np.linalg.norm(d @ vec - val * vec) <= 1e-10

    def test_escapes_the_identity_sector(self):
        # D = -I + 2 u u^dagger with u = vec(Z)/sqrt 2, orthogonal to vec(I): a
        # start from vec(I) stays in the -1 eigenspace and would report -1
        u = Z.reshape(-1) / math.sqrt(2.0)
        # so does a warm start of exactly vec(I): its random part leaves the sector
        for start in (None, np.eye(2).reshape(-1)):
            val, vec = _top_eigenpair(-np.eye(4) + 2.0 * np.outer(u, u.conj()), start=start)
            assert abs(val - 1.0) <= 1e-12
            assert abs(np.vdot(u, vec)) ** 2 >= 1.0 - 1e-10

    @pytest.mark.parametrize(
        "levels,sizes",
        [([-1.0] * 7 + [1.0, 2.0], [2, 4]), (list(range(1, 10)), [2, 4, 6, 8, 9])],
        ids=["odd-step", "last-step"],
    )
    def test_stopping_rule_every_second_step(self, monkeypatch, levels, sizes):
        # D = U diag(levels) U^dagger on the 3 x 3 Hermitian matrix units U: with
        # three distinct levels the Krylov space closes at step 3, tested at 4; with
        # nine it closes at step dim^2 = 9, tested there although 9 is odd
        d = (hermitian_units(3) * levels) @ hermitian_units(3).conj().T
        calls = []
        solve = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(solve(a, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(np.linalg, "eigh", spy)
        val, vec = _top_eigenpair(d)
        assert [len(thetas) for thetas, _ in calls] == sizes
        assert abs(val - max(levels)) <= 1e-12
        # the Ritz residual is beta_j |s_j|: the returned pair meets the rule
        assert np.linalg.norm(d @ vec - val * vec) <= 1e-12 * np.abs(calls[-1][0]).max()

    def test_exhausted_krylov_space_stops_at_once(self):
        # D = -I: the first step closes the Krylov space with beta exactly 0, an
        # odd step that is tested at once instead of divided by
        with np.errstate(all="raise"):
            val, vec = _top_eigenpair(-np.eye(4))
        assert abs(val + 1.0) <= 1e-12 and abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    def test_no_dense_solve_of_d(self, monkeypatch):
        # the eigensolves inside top_eigenvector are of the small Lanczos
        # matrix, never of the d^2 x d^2 D or its real form
        model = cli_scale_model(OCTAHEDRON, 1.0)
        assert model.d_matrix.shape == (144, 144)
        rows = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def spy(a, *args, _solve=solve, **kwargs):
                rows.append(np.shape(a)[0])
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        top_eigenvector(model)
        assert rows and max(rows) < 144


def fourier_gram_discriminant(h, jumps, grid, window, beta, basis):
    """Reference assembly from the operator_fourier components, each rotated to
    basis^dagger A_a(omega) basis: the Gram of every rated vec A_a(omega) at
    ((i, j), (k, l)), reordered to kron(A, conj A)'s ((i, k), (j, l)), minus
    the decay term."""
    dim = h.shape[0]
    comps = np.array([list(operator_fourier(op, h, grid, window).values()) for op in jumps.operators])
    comps = basis.conj().T @ comps @ basis
    rates = np.array([metropolis_weight(w, beta) for w in grid.omegas])
    sym_rates = np.sqrt(rates * np.array([metropolis_weight(-w, beta) for w in grid.omegas]))
    decay_rates = np.concatenate([sym_rates[:1], rates[1:]])
    flat = comps.reshape(-1, dim * dim)
    coherent = (flat.T * np.tile(sym_rates, len(comps))) @ flat.conj()
    d_matrix = coherent.reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    norm_term = np.einsum("w,awji,awjk->ik", decay_rates, comps.conj(), comps)
    eye = np.eye(dim)
    d_matrix -= 0.5 * (np.kron(norm_term, eye) + np.kron(eye, norm_term.conj()))
    return d_matrix / len(jumps.operators)


class TestFactorisedBuild:
    """build_discriminant forms D in H's eigenbasis from a J-wide and an M-wide
    Gram and keeps it there; it must match the J*M-wide Gram of the components
    rotated to that basis."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        n_jumps=st.integers(1, 3),
        beta=st.floats(0.0, 4.0),
        m=st.sampled_from([8, 16, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_component_gram(self, dim, n_jumps, beta, m, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        jumps = JumpSet([random_hermitian(rng, dim) for _ in range(n_jumps)])
        # the unit margin keeps the grid's span positive for a single level
        grid = make_grid(bohr_coverage(h) + 1.0, m)
        win = gaussian_window(grid, default_sigma_t(beta, grid))
        model = build_discriminant(h, jumps, grid, win, beta)
        expected = fourier_gram_discriminant(h, jumps, grid, win, beta, model.h_eigenvectors)
        assert np.abs(model.d_matrix - expected).max() <= 1e-12

    @pytest.mark.parametrize("m", [32, 128])
    def test_matches_component_gram_at_the_cap(self, m):
        # 26 edges: a 32-level register and a 1024 x 1024 D
        h = pad_hamiltonian(combinatorial_laplacian(random_complex(9, 0.55, 2, 8), 1))
        jumps = pauli_jumps(5)
        grid = make_grid(bohr_coverage(h), m)
        win = gaussian_window(grid, default_sigma_t(1.0, grid))
        model = build_discriminant(h, jumps, grid, win, 1.0)
        assert model.d_matrix.shape == (1024, 1024)
        expected = fourier_gram_discriminant(h, jumps, grid, win, 1.0, model.h_eigenvectors)
        assert np.abs(model.d_matrix - expected).max() <= 1e-12
        # the defect is the largest entry of |D - D^dagger|, as a Python float
        assert model.hermiticity_defect == np.abs(model.d_matrix - model.d_matrix.conj().T).max()


class TestAnnealing:
    def test_single_step_schedule(self):
        report = annealing_path(Z, pauli_jumps(1), 16, [0.0])
        assert len(report.steps) == 1
        assert report.min_overlap == 1.0
        assert report.steps[0].fidelity >= 0.99

    def test_schedule_to_beta_four(self):
        schedule = [0.0] + [4.0 * (i + 1) / 8 for i in range(8)]
        report = annealing_path(Z, pauli_jumps(1), 32, schedule)
        assert report.min_overlap >= 0.9
        assert report.final_fidelity >= 0.99

    def test_endpoint_matches_direct_build(self):
        schedule = [0.0, 1.0, 2.0]
        report = annealing_path(Z, pauli_jumps(1), 32, schedule)
        grid = make_grid(bohr_coverage(Z), 32)
        win = gaussian_window(grid, default_sigma_t(2.0, grid))
        _, _, fid = top_eigenvector(build_discriminant(Z, pauli_jumps(1), grid, win, 2.0))
        assert report.final_fidelity == pytest.approx(fid, abs=1e-8)

    def test_half_beta_reading_recorded(self):
        report = annealing_path(Z, pauli_jumps(1), 32, [0.0, 2.0])
        last = report.steps[-1]
        assert 0.0 <= last.fidelity_half_beta <= 1.0
        assert last.fidelity >= last.fidelity_half_beta  # beta reading is the converged one

    def test_warm_starts_match_cold_solves(self, monkeypatch):
        # the 26-edge input on the default schedule: each point started from the
        # previous point's eigenvector reports what a cold solve of it reports
        h = combinatorial_laplacian(random_complex(9, 0.55, 2, 8), 1).astype(complex)
        jumps, schedule = cut_pauli_jumps(len(h)), [i / 5 for i in range(6)]
        solve, starts = discriminant._top_eigenpair, []

        def recording(d_matrix, *, start=None):
            starts.append(start)
            return solve(d_matrix, start=start)

        monkeypatch.setattr(discriminant, "_top_eigenpair", recording)
        warm = asdict(annealing_path(h, jumps, 32, schedule))
        assert starts[0] is None and all(start is not None for start in starts[1:])
        monkeypatch.setattr(discriminant, "_top_eigenpair", lambda d_matrix, *, start=None: solve(d_matrix))
        cold = asdict(annealing_path(h, jumps, 32, schedule))
        assert_fields_match(warm, cold, 1e-10)

    @pytest.mark.parametrize("complex_name", ["octahedron", "dim32"])
    def test_steps_match_top_eigenvector(self, complex_name):
        # the path reads its steps in H's eigenbasis; top_eigenvector on each point's
        # model, rebuilt, reads them from the state rotated out and embedded in the register
        cx = {"octahedron": lambda: OCTAHEDRON, "dim32": lambda: random_complex(9, 0.55, 2, 8)}[complex_name]()
        h = combinatorial_laplacian(cx, 1).astype(complex)
        schedule = [i / 5 for i in range(6)]
        report = annealing_path(h, cut_pauli_jumps(len(h)), 32, schedule)
        prev = None
        for beta, step in zip(schedule, report.steps):
            val, state, fid = top_eigenvector(cli_scale_model(cx, beta))
            assert abs(step.top_eigenvalue - val) <= 1e-10
            assert abs(step.fidelity - fid) <= 1e-10
            if prev is None:
                assert step.overlap_prev is None
            else:
                assert abs(step.overlap_prev - abs(np.vdot(prev, state.amplitudes)) ** 2) <= 1e-10
            prev = state.amplitudes

    def test_solves_h_once(self, monkeypatch):
        # the 26-edge input on the default schedule: one eigh of H serves the grid,
        # every point's D and the fidelities; the other eighs are Lanczos tridiagonals
        h = combinatorial_laplacian(random_complex(9, 0.55, 2, 8), 1).astype(complex)
        solved = {"eigh": 0, "eigvalsh": 0}
        for name in solved:
            solve = getattr(np.linalg, name)

            def spy(a, *args, _solve=solve, _name=name, **kwargs):
                solved[_name] += _name == "eigvalsh" or (np.shape(a) == h.shape and np.array_equal(a, h))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        report = annealing_path(h, cut_pauli_jumps(len(h)), 32, [i / 5 for i in range(6)])
        assert len(report.steps) == 6
        assert solved == {"eigh": 1, "eigvalsh": 0}

    def test_builds_no_purification(self, monkeypatch):
        # the 26-edge input on the default schedule: both fidelities of every point are
        # read off X~'s diagonal, so no m x m purification is built
        h = combinatorial_laplacian(random_complex(9, 0.55, 2, 8), 1).astype(complex)
        calls = []
        build = discriminant.sqrt_gibbs

        def spy(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(discriminant, "sqrt_gibbs", spy)
        report = annealing_path(h, cut_pauli_jumps(len(h)), 32, [i / 5 for i in range(6)])
        assert len(report.steps) == 6
        assert calls == []

    def test_bad_schedules(self):
        with pytest.raises(ValueError):
            annealing_path(Z, pauli_jumps(1), 16, [0.5, 1.0])
        with pytest.raises(ValueError):
            annealing_path(Z, pauli_jumps(1), 16, [0.0, 1.0, 1.0])


def assert_fields_match(a, b, tol):
    """Equal structure and integers, floats within tol."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_fields_match(a[key], b[key], tol)
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_fields_match(x, y, tol)
    elif isinstance(a, float):
        assert isinstance(b, float) and abs(a - b) <= tol
    else:
        assert type(a) is type(b) and a == b


class TestJumpSet:
    def test_pauli_jump_properties(self):
        jumps = pauli_jumps(2)
        assert len(jumps.operators) == 6
        for op in jumps.operators:
            np.testing.assert_allclose(op, op.conj().T, atol=1e-15)
            np.testing.assert_allclose(op @ op, np.eye(4), atol=1e-15)

    def test_purification_reduces_to_gibbs(self):
        # oracle for the fidelity target: tracing out the mirror register of
        # the canonical purification gives the Gibbs state
        beta = 1.7
        vec = canonical_purification_vector(HOLLOW_L1.astype(complex), beta)
        mat = vec.reshape(3, 3)
        rho = mat @ mat.conj().T
        evals, evecs = np.linalg.eigh(HOLLOW_L1)
        w = np.exp(-beta * evals)
        w /= w.sum()
        expected = (evecs * w) @ evecs.T
        np.testing.assert_allclose(rho, expected, atol=1e-12)
