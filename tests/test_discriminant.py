import math

import numpy as np
import pytest

from thermaltda.complexes import CORPUS
from thermaltda.homology import combinatorial_laplacian
from thermaltda.discriminant import (
    annealing_path,
    bohr_coverage,
    build_discriminant,
    canonical_purification_vector,
    default_sigma_t,
    gaussian_window,
    heisenberg,
    make_grid,
    metropolis_weight,
    metropolis_weights,
    operator_fourier,
    pad_hamiltonian,
    pauli_jumps,
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
        with pytest.raises(ValueError):
            gaussian_window(make_grid(1.0, 8), 0.0)


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

    @pytest.mark.parametrize("beta", [0.0, 0.37, 1.0, 2.5])
    def test_detailed_balance_ratio_exact(self, beta):
        grid = make_grid(3.0, 32)
        for w in grid.omegas:
            lhs = metropolis_weight(float(w), beta) * math.exp(-beta * float(w))
            rhs = metropolis_weight(-float(w), beta)
            assert lhs == pytest.approx(rhs, rel=1e-14, abs=0.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            metropolis_weight(1.0, -0.5)


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
        padded = pad_hamiltonian(np.array([[3.0]]), min_qubits=1)
        assert padded.shape == (2, 2) and padded[1, 1].real > 3.0


def kron_loop_discriminant(h, jumps, grid, window, beta):
    """Reference assembly, one Kronecker product per jump and frequency, with
    A(omega) summed directly over the time grid of Heisenberg-picture jumps."""
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
        expected = kron_loop_discriminant(h, jumps, grid, win, beta)
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

    def test_gamma_field_matches_grid(self):
        grid = make_grid(bohr_coverage(Z), 16)
        model = build_discriminant(
            Z, pauli_jumps(1), grid, gaussian_window(grid, 1.0), 0.8
        )
        np.testing.assert_array_equal(model.gammas, metropolis_weights(grid, 0.8))
        assert np.all(model.gammas > 0.0) and np.all(model.gammas <= 1.0)


class TestTopEigenvector:
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

    def test_bad_schedules(self):
        with pytest.raises(ValueError):
            annealing_path(Z, pauli_jumps(1), 16, [0.5, 1.0])
        with pytest.raises(ValueError):
            annealing_path(Z, pauli_jumps(1), 16, [0.0, 1.0, 1.0])


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
