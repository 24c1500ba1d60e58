import math

import numpy as np
import pytest

from conftest import random_complex_family
from thermaltda.complexes import random_complex
from thermaltda.homology import (
    Spectrum,
    betti_exact_kernel,
    combinatorial_laplacian,
    spectrum,
)
from thermaltda.swaptest import (
    StateVector,
    betti_swap,
    overlap_probabilities,
    purification_state,
    reduced_density,
    swap_test_probabilities,
    swap_test_sample,
)
from thermaltda.thermal import beta_threshold, purity


def spec_with_vectors(lam, vecs=None):
    lam = np.asarray(lam, dtype=float)
    if vecs is None:
        vecs = np.eye(lam.size)
    return Spectrum(eigenvalues=lam, tol_kernel=1e-8 * max(1.0, lam[-1]), eigenvectors=vecs)


def gibbs_from_spectrum(spec, beta):
    w = np.exp(-beta * (spec.eigenvalues - spec.eigenvalues[0]))
    w /= w.sum()
    return (spec.eigenvectors * w) @ spec.eigenvectors.T


class TestPurification:
    def test_bell_state_at_beta_zero(self):
        state = purification_state(spec_with_vectors([0.0, 0.0]), 0.0)
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert abs(np.vdot(state.amplitudes, expected)) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_ground_state_product_at_large_beta(self, corpus):
        lap = combinatorial_laplacian(corpus["hollow-triangle"], 1)
        spec = spectrum(lap, with_vectors=True)
        state = purification_state(spec, 500.0)
        psi0 = np.pad(spec.eigenvectors[:, 0], (0, 1))  # embedded in the 4-dim register
        target = np.kron(psi0, psi0)
        assert abs(np.vdot(state.amplitudes, target)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_padding_amplitudes_are_zero(self):
        spec = spec_with_vectors([0.0, 1.0, 2.0])
        state = purification_state(spec, 0.7)
        mat = state.amplitudes.reshape(4, 4)
        assert np.all(mat[3, :] == 0) and np.all(mat[:, 3] == 0)

    def test_reduced_state_is_gibbs(self):
        # partial-trace oracle against the spectral Gibbs matrix
        rng = np.random.default_rng(13)
        for cx in random_complex_family(8, max_vertices=6, seed=77):
            for k in range(cx.max_dim + 1):
                if cx.num_simplices(k) > 16:
                    continue
                spec = spectrum(combinatorial_laplacian(cx, k), with_vectors=True)
                beta = float(rng.uniform(0.0, 3.0))
                state = purification_state(spec, beta)
                rho = reduced_density(state, state.n_qubits // 2)
                expected = np.zeros_like(rho)
                m = spec.dim
                expected[:m, :m] = gibbs_from_spectrum(spec, beta)
                assert np.linalg.norm(rho - expected, "fro") <= 1e-10

    def test_requires_eigenvectors(self):
        spec = Spectrum(eigenvalues=np.array([0.0, 1.0]), tol_kernel=1e-8)
        with pytest.raises(ValueError):
            purification_state(spec, 1.0)

    def test_single_simplex_needs_no_qubits(self):
        state = purification_state(spec_with_vectors([3.0]), 2.0)
        assert state.n_qubits == 0 and state.amplitudes.shape == (1,)


class TestSwapTestProbabilities:
    def test_identical_pure_states(self):
        amps = np.zeros(4)
        amps[2] = 1.0
        state = StateVector(amps, 2)
        p0, p1 = swap_test_probabilities(state, state)
        assert p0 == pytest.approx(1.0, abs=1e-12) and p1 == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_single_qubit(self):
        bell = purification_state(spec_with_vectors([0.0, 0.0]), 0.0)
        p0, p1 = swap_test_probabilities(bell, bell)
        assert p0 == pytest.approx(0.75, abs=1e-12)
        assert p1 == pytest.approx(0.25, abs=1e-12)
        assert p0 - p1 == pytest.approx(0.5, abs=1e-12)

    def test_hollow_triangle_beta_two(self, corpus):
        lap = combinatorial_laplacian(corpus["hollow-triangle"], 1)
        spec = spectrum(lap, with_vectors=True)
        state = purification_state(spec, 2.0)
        p0, p1 = swap_test_probabilities(state, state)
        assert p0 - p1 == pytest.approx(purity(spec, 2.0), abs=1e-10)

    def test_matches_spectral_purity_on_random_family(self):
        rng = np.random.default_rng(3)
        checked = 0
        for cx in random_complex_family(10, max_vertices=6, seed=31):
            for k in range(cx.max_dim + 1):
                if cx.num_simplices(k) > 16:
                    continue
                spec = spectrum(combinatorial_laplacian(cx, k), with_vectors=True)
                beta = float(rng.uniform(0.0, 4.0))
                state = purification_state(spec, beta)
                p0, p1 = swap_test_probabilities(state, state)
                assert p0 - p1 == pytest.approx(purity(spec, beta), abs=1e-10)
                checked += 1
        assert checked >= 10

    def test_different_states_give_cross_purity(self):
        spec = spec_with_vectors([0.0, 1.0])
        a = purification_state(spec, 0.0)
        b = purification_state(spec, 3.0)
        p0, p1 = swap_test_probabilities(a, b)
        rho_a = reduced_density(a, 1)
        rho_b = reduced_density(b, 1)
        assert p0 - p1 == pytest.approx(float(np.trace(rho_a @ rho_b).real), abs=1e-12)

    def test_mismatched_registers_rejected(self):
        a = purification_state(spec_with_vectors([0.0, 0.0]), 0.0)
        b = purification_state(spec_with_vectors([0.0, 0.0, 0.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            swap_test_probabilities(a, b, swap_a=(0,), swap_b=(0, 1))

    def test_contraction_path_agrees_with_circuit(self):
        rng = np.random.default_rng(17)
        for lam_count in (2, 3, 5, 8, 16):
            lam = np.sort(rng.uniform(0.0, 4.0, lam_count))
            lam[0] = 0.0
            spec = spec_with_vectors(lam)
            state = purification_state(spec, 1.3)
            circuit = swap_test_probabilities(state, state)
            contraction = overlap_probabilities(state, state)
            assert circuit[0] == pytest.approx(contraction[0], abs=1e-12)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = swap_test_sample(0.8, 10_000, seed=5)
        b = swap_test_sample(0.8, 10_000, seed=5)
        assert (a.count0, a.count1) == (b.count0, b.count1)

    def test_certain_outcome(self):
        result = swap_test_sample(1.0, 1000, seed=0)
        assert result.count0 == 1000
        assert result.purity_estimate == 1.0 and result.stderr == 0.0

    def test_stderr_formula(self):
        result = swap_test_sample(0.75, 1000, seed=1)
        # frozen arithmetic case: counts (750, 250) of 1000
        hand = type(result)(shots=1000, count0=750, count1=250)
        assert hand.purity_estimate == 0.5
        assert hand.stderr == pytest.approx(2.0 * math.sqrt(0.75 * 0.25 / 1000), rel=1e-12)
        assert hand.stderr == pytest.approx(0.0274, abs=5e-4)

    def test_concentration_within_four_stderr(self):
        # binomial concentration: >= 99% of seeds land within 4 stderr of truth
        p0 = 0.995083
        truth = 2.0 * p0 - 1.0
        hits = 0
        for seed in range(1000):
            r = swap_test_sample(p0, 10**6, seed=seed)
            if abs(r.purity_estimate - truth) <= 4.0 * r.stderr:
                hits += 1
        assert hits >= 990

    def test_variance_matches_binomial_prediction(self):
        p0 = 0.9
        shots = 10_000
        estimates = [swap_test_sample(p0, shots, seed=s).purity_estimate for s in range(1000)]
        predicted = 4.0 * p0 * (1.0 - p0) / shots
        assert np.var(estimates) == pytest.approx(predicted, rel=0.2)

    def test_error_scales_inverse_sqrt_shots(self):
        # quadrupling shots halves the RMS error (the shot-cost law)
        p0 = 0.7
        rms = []
        for shots in (4_000, 16_000):
            errs = [
                swap_test_sample(p0, shots, seed=s).purity_estimate - (2 * p0 - 1)
                for s in range(400)
            ]
            rms.append(float(np.sqrt(np.mean(np.square(errs)))))
        assert rms[0] / rms[1] == pytest.approx(2.0, rel=0.25)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            swap_test_sample(1.5, 10, seed=0)
        with pytest.raises(ValueError):
            swap_test_sample(0.5, 0, seed=0)


class TestBettiSwap:
    def test_hollow_triangle_stable_floor(self, corpus):
        spec = spectrum(combinatorial_laplacian(corpus["hollow-triangle"], 1), with_vectors=True)
        est = betti_swap(spec, beta=10.0, shots=100_000, seed=11)
        assert est.betti_floor == 1 and est.stable

    def test_boundary_case_flagged_unstable(self):
        # purity exactly 1/4: the sampled floor sits on the 4 <-> 3 boundary
        spec = spec_with_vectors([0.0, 0.0, 0.0, 0.0])
        floors = set()
        stables = []
        for seed in range(30):
            est = betti_swap(spec, beta=0.0, shots=100_000, seed=seed)
            floors.add(est.betti_floor)
            stables.append(est.stable)
        assert floors <= {3, 4}
        assert not all(stables)

    def test_negative_beta_rejected(self, corpus):
        spec = spectrum(combinatorial_laplacian(corpus["hollow-triangle"], 1), with_vectors=True)
        with pytest.raises(ValueError, match="beta must be >= 0"):
            betti_swap(spec, -1.0, shots=1000, seed=0)

    def test_single_shot_is_unstable(self):
        spec = spec_with_vectors([0.0, 1.0])
        est = betti_swap(spec, beta=1.0, shots=1, seed=2)
        assert not est.stable

    def test_trivial_kernel_override(self, corpus):
        lap = combinatorial_laplacian(corpus["filled-triangle"], 1)
        spec = spectrum(lap, with_vectors=True)
        beta = 4.0 * beta_threshold(spec, spec.dim)
        est = betti_swap(spec, beta=beta, shots=10**6, seed=3)
        assert est.trivial_kernel and est.betti_floor == 0 and est.stable

    def test_large_complex_uses_contraction(self):
        # m > 16 forces the reduced-density path; floor still matches the oracle
        cx = random_complex(8, 0.85, 3, seed=9)
        assert cx.num_simplices(1) > 16
        spec = spectrum(combinatorial_laplacian(cx, 1), with_vectors=True)
        beta = 4.0 * beta_threshold(spec, spec.dim)
        est = betti_swap(spec, beta=beta, shots=10**6, seed=4)
        if est.stable:
            assert est.betti_floor == betti_exact_kernel(spec)

    def test_json_schema(self, corpus):
        spec = spectrum(combinatorial_laplacian(corpus["hollow-triangle"], 1), with_vectors=True)
        est = betti_swap(spec, beta=5.0, shots=1000, seed=0)
        data = est.to_json_dict()
        assert set(data) == {
            "beta", "shots", "count0", "count1", "purity_estimate",
            "stderr", "betti_floor", "stable", "trivial_kernel", "converged",
        }
        assert data["count0"] + data["count1"] == 1000
