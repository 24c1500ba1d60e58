import csv
import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

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
    DEFAULT_CRITERION,
    SWEEP_CSV_HEADER,
    ThermalEstimate,
    beta_threshold,
    betti_thermal,
    cooling_rate,
    detect_trivial_kernel,
    hs_distance,
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
    def decimal_reference(spec, beta):
        """z_norm and rate from their definitions, to 50 significant digits."""
        with localcontext() as ctx:
            ctx.prec = 50
            lam = [Decimal(float(v)) for v in spec.eigenvalues]
            terms = [(-Decimal(beta) * v).exp() for v in lam]
            m = len(lam)
            return sum(terms) / m, sum(v * t for v, t in zip(lam, terms)) / m

    def test_matches_decimal_reference(self):
        """z_norm and rate within 1e-12 relative of the 50-digit sums, and
        below 1e-300 where those are; Z1 and Z2 keep their expressions."""
        for spec in random_spectra(60) + [HOLLOW, FLAT3, spec_of([0.0, 0.0])]:
            betas = list(self.BETAS)
            if np.any(spec.eigenvalues >= spec.tol_kernel):
                threshold = beta_threshold(spec, spec.dim)
                betas += [threshold, 4.0 * threshold]
            shifted = spec.eigenvalues - spec.eigenvalues[0]
            for beta in betas:
                sums = spectral_sums(spec, beta)
                for got, ref in zip((sums.z_norm, sums.rate), self.decimal_reference(spec, beta)):
                    if ref >= Decimal("1e-300"):
                        assert abs(Decimal(float(got)) - ref) <= Decimal("1e-12") * ref, (beta, got, ref)
                    else:
                        assert got < 1e-300, (beta, got, ref)
                assert sums.z1 == np.exp(-beta * shifted).sum()
                assert sums.z2 == np.exp(-2.0 * beta * shifted).sum()

    @pytest.mark.parametrize(
        "view",
        [
            lambda: sweep(HOLLOW, [-0.5, 1.0]),
            lambda: spectral_sums(HOLLOW, -1.0),
            lambda: purity(HOLLOW, -1.0),
            lambda: cooling_rate(HOLLOW, -1.0),
            lambda: spectral_sums(HOLLOW, math.nan),
            lambda: spectral_sums(HOLLOW, math.inf),
            lambda: cooling_rate(HOLLOW, math.inf),
            lambda: betti_thermal(HOLLOW, math.nan),
        ],
    )
    def test_negative_beta_rejected(self, view):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            view()


# PSD spectra: a kernel of exact zeros or of eigensolver-rounding values, or none
psd_spectra = st.builds(
    lambda kernel, positive: spec_of(np.sort(np.array(kernel + positive))),
    st.lists(st.sampled_from([0.0, 1e-13, -1e-13]), max_size=3),
    st.lists(st.floats(1e-3, 50.0), min_size=1, max_size=20),
)
beta_pairs = st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2).map(sorted)


@settings(derandomize=True, database=None, deadline=None)
@given(spec=psd_spectra, betas=beta_pairs)
def test_inverse_purity_in_range_and_non_increasing(spec, betas):
    """1/P lies in [1, m] and does not increase with beta (relative slack 1e-12)."""
    sums = [spectral_sums(spec, b) for b in betas]
    inv = [s.z1**2 / s.z2 for s in sums]
    assert all(1.0 - 1e-12 <= v <= spec.dim * (1.0 + 1e-12) for v in inv)
    assert inv[1] <= inv[0] * (1.0 + 1e-12)


@settings(derandomize=True, database=None, deadline=None)
@given(spec=psd_spectra, betas=beta_pairs)
def test_cooling_rate_non_increasing(spec, betas):
    """The rate falls with beta, so its threshold is one crossing (relative slack 1e-12)."""
    rate = [spectral_sums(spec, b).rate for b in betas]
    assert rate[1] <= rate[0] * (1.0 + 1e-12)


@settings(derandomize=True, database=None, deadline=None)
@given(spec=psd_spectra)
def test_threshold_is_the_crossing(spec):
    """The certified threshold meets the criterion, and 1e-8 below it the rate
    is still above: the solve's 1e-9 slack is its only tolerance."""
    tau = beta_threshold(spec, spec.dim)
    assert cooling_rate(spec, tau) <= DEFAULT_CRITERION
    if tau > 0.0:
        assert cooling_rate(spec, tau * (1.0 - 1e-8)) > DEFAULT_CRITERION


class TestPartitionTerms:
    def test_beta_zero(self):
        sums = spectral_sums(HOLLOW, 0.0)
        assert (sums.z1, sums.z2, sums.z_norm) == (3.0, 3.0, 1.0)

    def test_large_beta_limits(self):
        sums = spectral_sums(HOLLOW, 200.0)
        assert sums.z1 == pytest.approx(1.0, abs=1e-15)
        assert sums.z2 == pytest.approx(1.0, abs=1e-15)
        assert sums.z_norm == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_flat_spectrum_z_norm(self):
        z_norm = spectral_sums(FLAT3, 1.0).z_norm
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

    # at beta = 20, guard 2 floored to 3 and -0.5 to 0, both as converged; the
    # range is the CLI's [0, 1/2), and NaN fails it too
    @pytest.mark.parametrize("guard", [2.0, -0.5, 0.5, math.nan, math.inf])
    def test_bad_guard_rejected(self, guard):
        with pytest.raises(ValueError, match="guard must lie in"):
            betti_thermal(HOLLOW, 20.0, guard=guard)

    # a NaN criterion read as converged: False
    @pytest.mark.parametrize("criterion", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_criterion_rejected(self, criterion):
        with pytest.raises(ValueError, match="criterion must be positive"):
            betti_thermal(HOLLOW, 2.0, criterion=criterion)

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
        assert math.isfinite(est.renyi2_nats) and est.z_norm >= 0.0
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

    @pytest.mark.parametrize("spec, root", [
        (HOLLOW, math.log(2000.0) / 3.0), (FLAT3, math.log(3000.0) / 3.0),
    ])
    def test_newton_root_to_rounding(self, spec, root):
        """The answer is the closed-form root scaled by the 1 + 1e-9 slack."""
        assert beta_threshold(spec, 3) == pytest.approx(root * (1.0 + 1e-9), rel=1e-12)

    # NaN ran all Newton steps to ArithmeticError, 0 and -1 failed in math.log
    @pytest.mark.parametrize("criterion", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_criterion_rejected(self, criterion):
        with pytest.raises(ValueError, match="criterion must be positive"):
            beta_threshold(HOLLOW, 3, criterion=criterion)

    def test_root_above_max_beta_raises(self):
        # rate (1/2) 1e-11 exp(-1e-11 tau) meets 1e-24 at tau = ln(5e12)/1e-11, about 2.9e12
        spec = Spectrum(eigenvalues=np.array([0.0, 1e-11]), tol_kernel=1e-12)
        with pytest.raises(ArithmeticError, match="exceeds 1e\\+12"):
            beta_threshold(spec, 2, criterion=1e-24)

    def test_newton_step_cap_raises(self, monkeypatch):
        # one level: the first step lands on the root, and only a second
        # evaluation can see that it converged
        monkeypatch.setattr("thermaltda.thermal.MAX_NEWTON_STEPS", 1)
        with pytest.raises(ArithmeticError, match="not converged in 1 Newton steps"):
            beta_threshold(HOLLOW, 3)

    def test_root_within_rounding_of_zero(self, monkeypatch):
        """A criterion a hair under the rate at 0 still ends in a certified
        threshold near 0, in a bounded number of rate calls, not a walk of
        single ulps (about 1e12 of them for the first criterion)."""
        calls = []

        def counted(spec, tau):
            calls.append(tau)
            assert len(calls) <= 2000, "certificate walk did not end"
            return cooling_rate(spec, tau)

        monkeypatch.setattr("thermaltda.thermal.cooling_rate", counted)
        for criterion in (2.0 * (1.0 - 1e-12), 2.0 * (1.0 - 1e-16)):
            tau = beta_threshold(HOLLOW, 3, criterion=criterion)
            assert 0.0 < tau < 1e-12
            assert cooling_rate(HOLLOW, tau) <= criterion

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
        z = spectral_sums(HOLLOW, 4.0 * beta_threshold(HOLLOW, 3)).z_norm
        assert not detect_trivial_kernel(z, 3)

    def test_kernel_absent(self):
        tau = beta_threshold(FLAT3, 3)
        z = spectral_sums(FLAT3, tau).z_norm
        assert z == pytest.approx(1.0 / 3000.0, rel=1e-4)
        assert detect_trivial_kernel(z, 3)

    def test_zero_spectrum_never_trivial(self):
        z = spectral_sums(spec_of([0.0, 0.0]), 100.0).z_norm
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

    def test_memory_does_not_grow_with_the_grid(self):
        """A sweep holds O(m), not O(steps x m): 2,000 steps over 2,000
        levels peak far below one 2,000 x 2,000 float64 array (32 MB)."""
        spec = spec_of(np.linspace(0.0, 50.0, 2_000))
        grid = np.geomspace(0.01, 10.0, 2_000)
        tracemalloc.start()
        try:
            result = sweep(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.estimates) == 2_000
        assert peak < 4 * 2**20, peak

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(HOLLOW, [1.0, 1.0])

    @pytest.mark.parametrize("spec", [HOLLOW, spec_of([0.0, 0.0])])
    @pytest.mark.parametrize("criterion", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_criterion_rejected(self, spec, criterion):
        # an all-zero spectrum has no threshold, but the criterion is still checked
        with pytest.raises(ValueError, match="criterion must be positive"):
            sweep(spec, [1.0, 2.0], criterion=criterion)

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
        rows = list(csv.reader(lines[1:]))
        assert all(len(row) == 9 and all(row) for row in rows)

    def test_csv_columns_are_estimate_fields(self):
        names = [f.name for f in dataclasses.fields(ThermalEstimate)]
        assert all(col in names for col in SWEEP_CSV_HEADER.split(","))
