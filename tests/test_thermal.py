import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import logsumexp

from conftest import CORPUS_BETTI, random_complex_family, random_spectra
from thermaltda.complexes import random_complex
from thermaltda.homology import (
    Spectrum,
    ZeroSpectrumError,
    betti_exact_kernel,
    combinatorial_laplacian,
    spectral_gap,
    spectrum,
)
from thermaltda.thermal import (
    SWEEP_CSV_HEADER,
    beta_threshold,
    betti_thermal,
    cooling_rate,
    detect_trivial_kernel,
    hs_distance,
    partition_terms,
    purity,
    renyi2,
    spectral_sums,
    sweep,
    uhlmann_fidelity,
    write_sweep_csv,
)


def spec_of(eigenvalues):
    lam = np.asarray(eigenvalues, dtype=float)
    return Spectrum(eigenvalues=lam, tol_kernel=1e-8 * max(1.0, lam[-1]))


HOLLOW = spec_of([0.0, 3.0, 3.0])   # hollow-triangle k=1
FLAT3 = spec_of([3.0, 3.0, 3.0])    # filled-triangle k=1

# independent closed forms for the {0,3,3} spectrum
def hollow_purity(beta):
    z1 = 1.0 + 2.0 * math.exp(-3.0 * beta)
    z2 = 1.0 + 2.0 * math.exp(-6.0 * beta)
    return z2 / z1**2


def gibbs_matrix(laplacian, beta):
    rho = expm(-beta * laplacian)
    return rho / np.trace(rho)


class TestSpectralSums:
    BETAS = [0.0, 0.01, 0.5, 2.0, 50.0, 1e3, 1e6]

    @staticmethod
    def scipy_reference(spec, beta):
        """z_norm and rate as the scipy logsumexp expressions they replay."""
        lam = spec.eigenvalues
        log_m = math.log(lam.size)
        log_znorm = float(logsumexp(-beta * lam) - log_m)
        positive = lam[lam > 0.0]
        if positive.size == 0:
            return math.exp(log_znorm) if log_znorm > -745.0 else 0.0, 0.0
        log_rate = float(logsumexp(np.log(positive) - beta * positive)) - log_m
        return (
            math.exp(log_znorm) if log_znorm > -745.0 else 0.0,
            math.exp(log_rate) if log_rate > -745.0 else 0.0,
        )

    def test_matches_scipy_logsumexp(self):
        for spec in random_spectra(60) + [HOLLOW, FLAT3, spec_of([0.0, 0.0])]:
            betas = list(self.BETAS)
            if np.any(spec.eigenvalues >= spec.tol_kernel):
                threshold = beta_threshold(spec, spec.dim)
                betas += [threshold, 4.0 * threshold]
            sums = spectral_sums(spec, np.array(betas))
            shifted = spec.eigenvalues - spec.eigenvalues[0]
            for i, beta in enumerate(betas):
                z_norm, rate = self.scipy_reference(spec, beta)
                assert sums.z_norm[i] == z_norm
                assert sums.rate[i] == rate
                assert sums.z1[i] == np.exp(-beta * shifted).sum()
                assert sums.z2[i] == np.exp(-2.0 * beta * shifted).sum()

    @pytest.mark.parametrize(
        "view",
        [
            lambda: spectral_sums(HOLLOW, [1.0, -0.5]),
            lambda: partition_terms(HOLLOW, -1.0),
            lambda: purity(HOLLOW, -1.0),
            lambda: cooling_rate(HOLLOW, -1.0),
        ],
    )
    def test_negative_beta_rejected(self, view):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            view()


class TestPartitionTerms:
    def test_beta_zero(self):
        z1, z2, z_norm = partition_terms(HOLLOW, 0.0)
        assert (z1, z2, z_norm) == (3.0, 3.0, 1.0)

    def test_large_beta_limits(self):
        z1, z2, z_norm = partition_terms(HOLLOW, 200.0)
        assert z1 == pytest.approx(1.0, abs=1e-15)
        assert z2 == pytest.approx(1.0, abs=1e-15)
        assert z_norm == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_flat_spectrum_z_norm(self):
        _, _, z_norm = partition_terms(FLAT3, 1.0)
        assert z_norm == pytest.approx(math.exp(-3.0), rel=1e-14)


class TestPurity:
    def test_beta_zero_is_maximally_mixed(self):
        assert purity(HOLLOW, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 2.0, 7.0])
    def test_matches_closed_form(self, beta):
        assert purity(HOLLOW, beta) == pytest.approx(hollow_purity(beta), rel=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, 4.0])
    def test_matches_dense_matrix_oracle(self, corpus, beta):
        lap = combinatorial_laplacian(corpus["hollow-triangle"], 1)
        rho = gibbs_matrix(lap, beta)
        spec = spectrum(lap)
        assert purity(spec, beta) == pytest.approx(float(np.trace(rho @ rho)), abs=1e-12)

    def test_value_at_beta_two(self):
        # frozen from the closed form above
        assert purity(HOLLOW, 2.0) == pytest.approx(0.9901704049694163, rel=1e-14)

    def test_value_at_beta_tenth(self):
        assert purity(HOLLOW, 0.1) == pytest.approx(0.34060512384789116, rel=1e-14)


class TestInterpretations:
    def test_renyi_at_maximal_mixing(self):
        assert renyi2(1.0 / 3.0) == pytest.approx(math.log(3.0), rel=1e-14)

    def test_renyi_pure_state(self):
        assert renyi2(1.0) == 0.0

    def test_renyi_kernel_limit(self):
        assert renyi2(purity(HOLLOW, 500.0)) == pytest.approx(0.0, abs=1e-12)

    def test_renyi_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            renyi2(0.0)

    def test_fidelity_at_tau_zero(self):
        assert uhlmann_fidelity(HOLLOW, 0.0, 3) == pytest.approx(1.0, abs=1e-14)

    def test_fidelity_kernel_limit(self):
        assert uhlmann_fidelity(HOLLOW, 300.0, 3) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_fidelity_at_tau_two(self):
        expected = (1.0 / hollow_purity(2.0)) / 3.0
        assert uhlmann_fidelity(HOLLOW, 2.0, 3) == pytest.approx(expected, rel=1e-13)

    def test_hs_zero_at_beta_zero(self):
        assert hs_distance(HOLLOW, 0.0, 3) == pytest.approx(0.0, abs=1e-15)

    def test_hs_kernel_limit(self):
        assert hs_distance(HOLLOW, 400.0, 3) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_hs_at_beta_two(self):
        assert hs_distance(HOLLOW, 2.0, 3) == pytest.approx(
            hollow_purity(2.0) - 1.0 / 3.0, rel=1e-13
        )

    def test_hs_matches_direct_matrix_norm(self, corpus):
        # definition-level oracle: squared Frobenius norm of rho_mix - rho_beta
        for name in ("hollow-triangle", "filled-triangle", "octahedron-boundary"):
            cx = corpus[name]
            for k in range(cx.max_dim + 1):
                lap = combinatorial_laplacian(cx, k)
                spec = spectrum(lap)
                m = spec.dim
                for beta in (0.0, 0.3, 1.7):
                    rho = gibbs_matrix(lap, beta)
                    direct = float(np.linalg.norm(np.eye(m) / m - rho, "fro") ** 2)
                    assert hs_distance(spec, beta, m) == pytest.approx(direct, abs=1e-10)

    def test_identity_chain_random_spectra(self):
        betas = np.linspace(0.0, 20.0, 50)
        for spec in random_spectra(100):
            m = spec.dim
            for beta in betas:
                p = purity(spec, beta)
                assert abs(uhlmann_fidelity(spec, beta, m) * m - 1.0 / p) <= 1e-10
                assert abs(renyi2(p) + math.log(p)) <= 1e-12
                assert abs(hs_distance(spec, beta, m) - (p - 1.0 / m)) <= 1e-10


class TestBettiThermal:
    def test_hollow_triangle_converged_floor(self):
        est = betti_thermal(HOLLOW, 2.0, guard=1e-9)
        assert est.inverse_purity == pytest.approx(1.0 / hollow_purity(2.0), rel=1e-13)
        assert est.betti_floor == 1
        assert not est.trivial_kernel

    def test_premature_flooring_flagged(self):
        est = betti_thermal(HOLLOW, 0.1)
        assert est.inverse_purity == pytest.approx(2.935951135152577, rel=1e-13)
        assert est.betti_floor == 2
        assert not est.converged  # rate 2 e^{-0.3} is far above the criterion

    def test_trivial_kernel_override(self):
        est = betti_thermal(FLAT3, 50.0)
        assert est.trivial_kernel
        assert est.betti_floor == 0
        assert est.inverse_purity == pytest.approx(3.0, rel=1e-12)  # raw value kept

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            betti_thermal(HOLLOW, -1.0)

    def test_monotone_inverse_purity(self):
        grids = np.linspace(0.0, 30.0, 100)
        for spec in random_spectra(100, seed=7):
            values = [1.0 / purity(spec, b) for b in grids]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-9 * np.abs(values[:-1]))

    def test_limits(self):
        for spec in random_spectra(60, seed=21):
            if spec.kernel_dim == 0:
                continue
            assert 1.0 / purity(spec, 0.0) == pytest.approx(spec.dim, rel=1e-12)
            beta = 50.0 / spectral_gap(spec)
            assert abs(1.0 / purity(spec, beta) - spec.kernel_dim) <= 1e-6

    def test_floor_reproduces_exact_oracle(self):
        # thermal floor at 4x threshold == exact kernel count, trivial override on
        for cx in random_complex_family(30, seed=55):
            for k in range(cx.max_dim + 1):
                spec = spectrum(combinatorial_laplacian(cx, k))
                exact = betti_exact_kernel(spec)
                try:
                    beta = 4.0 * beta_threshold(spec, spec.dim)
                except ZeroSpectrumError:
                    beta = 1.0
                assert betti_thermal(spec, beta, guard=1e-9).betti_floor == exact

    def test_no_overflow_at_extreme_scales(self):
        spec = spec_of([0.0, 1.0, 1e3])
        est = betti_thermal(spec, 1e6)
        assert est.betti_floor == 1
        assert math.isfinite(est.renyi2) and est.z_norm >= 0.0
        flat = spec_of([1e3, 1e3])
        est = betti_thermal(flat, 1e6)
        assert est.z_norm == 0.0 and est.trivial_kernel


class TestBetaThreshold:
    def test_hollow_closed_form(self):
        # rate (1/3)(3 e^{-3 tau} + 3 e^{-3 tau}) = 2 e^{-3 tau} hits 1e-3 at ln(2000)/3
        expected = math.log(2000.0) / 3.0
        assert beta_threshold(HOLLOW, 3) == pytest.approx(expected, rel=2e-6)

    def test_flat_closed_form(self):
        expected = math.log(3000.0) / 3.0
        assert beta_threshold(FLAT3, 3) == pytest.approx(expected, rel=2e-6)

    def test_already_satisfied_gives_zero(self):
        assert beta_threshold(HOLLOW, 3, criterion=10.0) == 0.0

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ZeroSpectrumError):
            beta_threshold(spec_of([0.0, 0.0]), 2)

    def test_bisection_certificate(self):
        for spec in random_spectra(40, seed=3):
            if not np.any(spec.eigenvalues > spec.tol_kernel):
                continue
            tau = beta_threshold(spec, spec.dim)
            if tau == 0.0:
                continue
            assert cooling_rate(spec, tau) <= 1e-3
            assert cooling_rate(spec, tau * (1.0 - 1e-4)) > 1e-3


class TestTrivialKernelDetection:
    def test_kernel_present(self):
        _, _, z = partition_terms(HOLLOW, 4.0 * beta_threshold(HOLLOW, 3))
        assert not detect_trivial_kernel(z, 3)

    def test_kernel_absent(self):
        tau = beta_threshold(FLAT3, 3)
        _, _, z = partition_terms(FLAT3, tau)
        assert z == pytest.approx(1.0 / 3000.0, rel=1e-4)
        assert detect_trivial_kernel(z, 3)

    def test_zero_spectrum_never_trivial(self):
        _, _, z = partition_terms(spec_of([0.0, 0.0]), 100.0)
        assert z == 1.0
        assert not detect_trivial_kernel(z, 2)


class TestSweep:
    def test_descends_to_kernel_count(self):
        grid = np.logspace(-2, 1, 40)
        result = sweep(HOLLOW, grid)
        inv = [e.inverse_purity for e in result.estimates]
        assert inv[0] == pytest.approx(3.0, rel=1e-3)
        assert inv[-1] == pytest.approx(1.0, rel=1e-6)
        assert result.beta_threshold == pytest.approx(math.log(2000.0) / 3.0, rel=2e-6)
        for est in result.estimates:
            assert est.converged == (est.beta >= result.beta_threshold * (1 - 1e-9))

    def test_rows_equal_one_point_estimates(self):
        grid = np.logspace(-3, 3, 25)
        specs = [HOLLOW, FLAT3, spec_of([0.0, 0.0, 0.0])] + [
            spectrum(combinatorial_laplacian(cx, 1))
            for cx in random_complex_family(20)
            if cx.num_simplices(1) > 0
        ]
        for spec in specs:
            result = sweep(spec, grid)
            for beta, row in zip(grid, result.estimates):
                assert row == betti_thermal(spec, float(beta))

    def test_single_point_grid(self):
        result = sweep(HOLLOW, [0.0])
        assert len(result.estimates) == 1
        assert result.estimates[0].purity == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_zero_spectrum_has_no_threshold(self):
        result = sweep(spec_of([0.0, 0.0, 0.0]), [0.1, 1.0])
        assert result.beta_threshold is None
        assert all(e.inverse_purity == pytest.approx(3.0) for e in result.estimates)

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(HOLLOW, [1.0, 1.0])

    def test_csv_format(self, tmp_path):
        result = sweep(HOLLOW, [0.5, 1.0, 2.0])
        path = tmp_path / "sweep.csv"
        with open(path, "w") as fh:
            write_sweep_csv(result, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[1]) == pytest.approx(hollow_purity(0.5), rel=1e-15)
