import csv
import io
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermaltda.complexes import CORPUS
from thermaltda.experiments import (
    InsufficientDataError,
    ScalingRecord,
    SCALING_CSV_HEADER,
    fit_power_law,
    scaling_experiment,
    spearman_gap_threshold,
    write_scaling_csv,
)
from thermaltda.thermal import beta_threshold, cooling_rate
from thermaltda.homology import combinatorial_laplacian, laplacian_spectrum, spectral_gap, spectrum


@pytest.fixture(scope="module")
def small_run():
    return scaling_experiment(10, [1, 2, 3], 40, 1e-3, (0.3, 0.9), master_seed=42)


def synthetic_records(gaps, thresholds):
    return [
        ScalingRecord(
            instance_id=i, seed=i, k=1, edge_prob=0.5, num_simplices=3,
            delta_gap=float(g), betti=1, beta_threshold=float(t),
        )
        for i, (g, t) in enumerate(zip(gaps, thresholds))
    ]


class TestScalingExperiment:
    def test_deterministic_under_master_seed(self, small_run):
        again = scaling_experiment(10, [1, 2, 3], 40, 1e-3, (0.3, 0.9), master_seed=42)
        assert again.records == small_run.records
        assert again.rejected == small_run.rejected

    def test_ten_newton_steps_suffice(self, small_run, monkeypatch):
        """Every threshold of the run converges within 10 Newton steps."""
        monkeypatch.setattr("thermaltda.thermal.MAX_NEWTON_STEPS", 10)
        again = scaling_experiment(10, [1, 2, 3], 40, 1e-3, (0.3, 0.9), master_seed=42)
        assert again.records == small_run.records

    def test_different_seed_differs(self, small_run):
        other = scaling_experiment(10, [1, 2, 3], 40, 1e-3, (0.3, 0.9), master_seed=43)
        assert other.records != small_run.records

    def test_hand_planted_hollow_triangle(self):
        spec = laplacian_spectrum(CORPUS["hollow-triangle"](), 1)
        assert spectral_gap(spec) == pytest.approx(3.0, abs=1e-12)
        assert spec.kernel_dim == 1
        assert beta_threshold(spec, spec.dim, 1e-3) == pytest.approx(math.log(2000.0) / 3.0, rel=2e-6)

    def test_each_boundary_solved_once_per_instance(self, monkeypatch):
        """One Gram eigensolve per nonempty boundary of an instance, shared by
        the two Laplacians it enters, not one per (instance, k); the records
        are those of solving each (instance, k) on its own.  The Grams, all
        below IN_PLACE_MIN_DIM, are solved by numpy's eigvalsh straight from
        the Hodge split's per-boundary solve, so that is where the solves are
        counted."""
        import thermaltda.experiments as experiments

        solved, drawn = [], []
        solve, draw = np.linalg.eigvalsh, experiments.random_complex

        def counted(matrix, *args, **kwargs):
            solved.append(matrix.shape[0])
            return solve(matrix, *args, **kwargs)

        def recorded(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(experiments, "random_complex", recorded)
        result = scaling_experiment(10, [1, 2, 3, 4], 20, 1e-3, (0.3, 0.9), master_seed=7)
        boundaries = sum(1 for cx in drawn for j in range(1, 6) if cx.num_simplices(j))
        per_k = sum(
            1 for cx in drawn for k in (1, 2, 3, 4) for j in (k, k + 1)
            if cx.num_simplices(k) and cx.num_simplices(j)
        )
        assert len(solved) == boundaries < per_k
        for r in result.records:
            spec = laplacian_spectrum(drawn[r.instance_id], r.k)
            assert (spectral_gap(spec), spec.kernel_dim, beta_threshold(spec, spec.dim, 1e-3)) == (
                r.delta_gap, r.betti, r.beta_threshold
            )

    def test_rejection_rules_counted(self):
        # p = 0: the 0-Laplacian is identically zero and higher sets are empty
        result = scaling_experiment(5, [0, 1], 3, 1e-3, (0.0, 0.0), master_seed=1)
        assert result.records == []
        assert result.rejected["zero_laplacian"] == 3
        assert result.rejected["empty_simplex_set"] == 3

    def test_threshold_certificates(self, small_run):
        # every recorded threshold is the smallest satisfying beta
        rng = np.random.default_rng(0)
        sample = rng.choice(len(small_run.records), size=25, replace=False)
        for idx in sample:
            rec = small_run.records[idx]
            from thermaltda.complexes import random_complex

            cx = random_complex(10, rec.edge_prob, 4, rec.seed)
            spec = spectrum(combinatorial_laplacian(cx, rec.k))
            assert cooling_rate(spec, rec.beta_threshold) <= 1e-3
            assert cooling_rate(spec, rec.beta_threshold * (1 - 1e-4)) > 1e-3

    def test_negative_rank_correlation(self, small_run):
        assert len(small_run.records) >= 30
        assert spearman_gap_threshold(small_run.records) < 0.0

    def test_gap_positive_and_counts(self, small_run):
        for rec in small_run.records:
            assert rec.delta_gap > 0.0
            assert rec.beta_threshold >= 0.0
            assert rec.num_simplices >= 1

    def test_over_cap_k_raises_before_any_gram(self, monkeypatch):
        """On the complete graph on 8 vertices m_1 = 28 and m_2 = 56: with
        the cap between them, k = 2 fails its size check before the Grams of
        k = 1, which comes first, are built."""

        def unbuilt(*args):
            raise AssertionError("Gram matrix built before the size checks")

        monkeypatch.setattr("thermaltda.homology.MAX_LAPLACIAN_DIM", 40)
        monkeypatch.setattr("thermaltda.homology.face_gram", unbuilt)
        monkeypatch.setattr("thermaltda.homology.simplex_gram", unbuilt)
        with pytest.raises(ValueError, match="56 2-simplices exceed the Laplacian cap of 40"):
            scaling_experiment(8, [1, 2], 1, 1e-3, (1.0, 1.0), master_seed=0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            scaling_experiment(10, [1], 0, 1e-3, (0.3, 0.9), 0)
        with pytest.raises(ValueError):
            scaling_experiment(10, [1], 5, 1e-3, (0.9, 0.3), 0)


# mostly positive finite values, some nearly equal, some of any kind at all
ANY_VALUE = (
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    | st.sampled_from([1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 2.0])
    | st.floats()
)


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        gaps = np.logspace(-2, 1, 40)
        fit = fit_power_law(synthetic_records(gaps, gaps**-0.7))
        assert fit.slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.n == 40

    @settings(max_examples=50, deadline=None)
    @given(
        # a zero slope is one shared threshold, which withholds the fit
        slope=st.floats(-3.0, -0.1) | st.floats(0.1, 3.0),
        scale=st.floats(0.1, 10.0),
        lo=st.floats(-8.0, 2.0),
        n=st.integers(10, 60),
    )
    def test_exact_power_law_has_no_slope_error(self, slope, scale, lo, n):
        gaps = np.exp(np.linspace(lo, lo + 4.0, n))
        fit = fit_power_law(synthetic_records(gaps, scale * gaps**slope))
        assert abs(fit.slope - slope) <= 1e-9
        assert fit.slope_se <= 1e-9

    def test_slope_error_matches_textbook_formula(self):
        rng = np.random.default_rng(5)
        log_g = np.linspace(-3.0, 1.0, 30)
        log_t = -0.6 * log_g + 0.2 + rng.normal(scale=0.1, size=30)
        fit = fit_power_law(synthetic_records(np.exp(log_g), np.exp(log_t)))
        residuals = log_t - (fit.slope * log_g + fit.intercept)
        expected = math.sqrt((residuals**2).sum() / 28 / ((log_g - log_g.mean()) ** 2).sum())
        assert fit.slope_se == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(ANY_VALUE, ANY_VALUE), max_size=30), st.booleans())
    def test_any_input_fits_or_refuses(self, pairs, group_by_k):
        """Every input either fits, with a finite slope error, or raises
        InsufficientDataError or the positivity ValueError."""
        gaps, thresholds = [g for g, _ in pairs], [t for _, t in pairs]
        records = [replace(r, k=i % 2) for i, r in enumerate(synthetic_records(gaps, thresholds))]
        try:
            fit = fit_power_law(records, group_by_k=group_by_k)
        except InsufficientDataError:
            return
        except ValueError as exc:
            assert "positive, finite" in str(exc)
            return
        for line in (fit, *fit.per_k.values()):
            assert math.isfinite(line.slope) and math.isfinite(line.slope_se) and line.slope_se >= 0.0

    def test_log_correction_flattens_slope(self):
        # threshold ~ gap^-1 / ln(1/gap): the correction pulls the fitted
        # exponent off -1 into the (0.5, 1) band
        gaps = np.logspace(-2, np.log10(0.3), 60)
        thresholds = gaps**-1.0 / np.log(1.0 / gaps)
        fit = fit_power_law(synthetic_records(gaps, thresholds))
        assert 0.5 < -fit.slope < 1.0

    def test_per_k_breakdown(self, small_run):
        fit = fit_power_law(small_run.records, group_by_k=True)
        assert set(fit.per_k) <= {1, 2, 3}
        assert 1 in fit.per_k
        for sub in fit.per_k.values():
            assert sub.n >= 10

    def test_insufficient_points(self):
        gaps = np.array([1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            fit_power_law(synthetic_records(gaps, gaps))

    def test_single_gap_pooled_fit_withheld(self):
        """Records that share one gap leave the slope undefined: no fit, and
        no RankWarning from the solver (warnings are errors here)."""
        with pytest.raises(InsufficientDataError, match="share one gap"):
            fit_power_law(synthetic_records(np.full(12, 2.0), np.linspace(1.0, 2.0, 12)))

    @pytest.mark.parametrize("n, threshold", [
        (12, 3.4538776394910684), (37, 0.7), (37, 3.4538776394910684),
    ])
    def test_single_threshold_fit_withheld(self, n, threshold):
        """Records that share one threshold have slope 0 and no r^2: no fit,
        rather than a ZeroDivisionError or an r^2 read off rounding."""
        records = synthetic_records(np.linspace(0.3, 7, n), np.full(n, threshold))
        with pytest.raises(InsufficientDataError, match="share one threshold"):
            fit_power_law(records)

    def test_single_gap_group_left_out_of_per_k(self):
        gaps = np.logspace(-2, 1, 12)
        spread = synthetic_records(gaps, gaps**-0.7)
        flat = [replace(r, k=2) for r in synthetic_records(np.full(12, 2.0), np.linspace(1.0, 2.0, 12))]
        fit = fit_power_law(spread + flat, group_by_k=True)
        assert set(fit.per_k) == {1}
        assert fit.per_k[1].slope == pytest.approx(-0.7, abs=1e-12)
        assert fit.n == 24

    def test_nonpositive_values_rejected(self):
        gaps = np.linspace(0.0, 1.0, 12)
        with pytest.raises(ValueError):
            fit_power_law(synthetic_records(gaps, np.ones(12)))

    def test_no_single_point_leverage(self, small_run):
        records = small_run.records
        assert len(records) >= 100
        base = fit_power_law(records).slope
        log_g = np.log([r.delta_gap for r in records])
        log_t = np.log([r.beta_threshold for r in records])
        for i in range(len(records)):
            mask = np.ones(len(records), dtype=bool)
            mask[i] = False
            slope, _ = np.polyfit(log_g[mask], log_t[mask], 1)
            assert abs(slope - base) < 0.2 * abs(base)

    def test_json_shape(self, small_run):
        fit = fit_power_law(small_run.records, group_by_k=True)
        data = fit.to_json_dict()
        assert set(data) == {"pooled", "per_k"}
        assert set(data["pooled"]) == {"slope", "slope_se", "intercept", "r2", "n"}
        assert data["pooled"]["slope_se"] == fit.slope_se > 0.0


class TestScalingCsv:
    def test_round_trip_and_header(self, small_run):
        buf = io.StringIO()
        write_scaling_csv(small_run, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == SCALING_CSV_HEADER
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(small_run.records)
        for rec, row in zip(small_run.records, rows):
            for name, v in asdict(rec).items():
                assert type(v)(row[name]) == v, (name, row[name], v)

    def test_bit_identical_across_runs(self):
        outputs = []
        for _ in range(2):
            result = scaling_experiment(8, [1, 2], 10, 1e-3, (0.4, 0.8), master_seed=7)
            buf = io.StringIO()
            write_scaling_csv(result, buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
