import math

import numpy as np
import pytest

from stable_extrap import (
    NoiseKind,
    NoiseModel,
    TEST_FUNCTIONS,
    bernstein_rho_from_pole,
    check_singular_bounds,
    plateau_statistic,
    run_alpha_profile,
    run_extrapolation_decay,
    run_gram_timing,
    run_noise_plateau,
    run_singular_bounds_sweep,
)

RHO_SILVER = 1.0 + math.sqrt(2.0)


def slope(ms, errs):
    return float(np.polyfit(ms, np.log(errs), 1)[0])


class TestNoiseModel:
    def test_gaussian_reproducible(self):
        a = NoiseModel.gaussian(1e-3, seed=42).draw(1000)
        b = NoiseModel.gaussian(1e-3, seed=42).draw(1000)
        assert np.array_equal(a, b)
        c = NoiseModel.gaussian(1e-3, seed=43).draw(1000)
        assert not np.array_equal(a, c)

    def test_worst_case_alternates(self):
        d = NoiseModel.worst_case(0.5).draw(5)
        np.testing.assert_array_equal(d, [0.5, -0.5, 0.5, -0.5, 0.5])

    def test_none_is_zero(self):
        assert NoiseModel.none().kind == NoiseKind.NONE
        np.testing.assert_array_equal(NoiseModel.none().draw(4), np.zeros(4))

    def test_perturb_adds(self):
        base = np.ones(6)
        out = NoiseModel.worst_case(0.25).perturb(base)
        np.testing.assert_array_equal(out, base + 0.25 * np.array([1, -1, 1, -1, 1, -1.0]))


class TestBernsteinRho:
    def test_pole_at_i(self):
        assert bernstein_rho_from_pole(1j) == pytest.approx(RHO_SILVER, rel=1e-14)

    def test_registry_second_function(self):
        # Pole at i/sqrt(2) gives (1 + sqrt(3))/sqrt(2); the stored constant
        # must match the map.
        expected = (1.0 + math.sqrt(3.0)) / math.sqrt(2.0)
        assert TEST_FUNCTIONS["inv1p2x2"].rho == pytest.approx(expected, rel=1e-15)
        assert bernstein_rho_from_pole(1j / math.sqrt(2.0)) == pytest.approx(expected, rel=1e-14)

    def test_registry_runge25(self):
        assert TEST_FUNCTIONS["runge25"].rho == pytest.approx(
            bernstein_rho_from_pole(0.01 + 0.2j), rel=1e-15)


class TestAlphaProfile:
    def test_first_row(self):
        t = run_alpha_profile(RHO_SILVER, 2.2e-16, 64)
        assert t.columns["x"][0] == 1.0
        assert t.columns["alpha"][0] == pytest.approx(1.0, abs=5e-15)
        expected = 2.2e-16 / (1.0 - 1.0 / RHO_SILVER)
        assert t.columns["factor"][0] == pytest.approx(expected, rel=1e-12)

    def test_edge_row_capped(self):
        t = run_alpha_profile(RHO_SILVER, 2.2e-16, 64)
        assert t.columns["capped"][-1] == 1
        assert t.columns["alpha"][-1] == pytest.approx(0.0, abs=1e-7)

    def test_alpha_monotone_decreasing(self):
        t = run_alpha_profile(RHO_SILVER, 2.2e-16, 200)
        alpha = np.asarray(t.columns["alpha"])
        assert np.all(np.diff(alpha) < 0)

    def test_factor_monotone_increasing_until_cap(self):
        t = run_alpha_profile(RHO_SILVER, 1e-8, 200)
        factor = np.asarray(t.columns["factor"])
        capped = np.asarray(t.columns["capped"], dtype=bool)
        live = factor[~capped]
        assert np.all(np.diff(live) > 0)


class TestSingularBoundsSweep:
    def test_measured_between_bounds(self):
        t = run_singular_bounds_sweep([64, 100, 256])
        for i in range(3):
            assert t.columns["sigma_max_sq"][i] <= t.columns["upper_bound"][i]
            assert t.columns["sigma_min_sq"][i] >= t.columns["lower_bound"][i]

    def test_matches_legendre_singular_bounds_check(self):
        # The figure sweep and the certification check share one spectrum
        # code and one envelope.
        t = run_singular_bounds_sweep([64, 100, 256])
        for i, n in enumerate((64, 100, 256)):
            upper, lower = check_singular_bounds(t.columns["M"][i], n)[:2]
            assert t.columns["sigma_max_sq"][i] == upper.lhs
            assert t.columns["sigma_min_sq"][i] == lower.rhs

    def test_degree_jumps_at_squares(self):
        t = run_singular_bounds_sweep([99, 100])
        assert t.columns["M"] == [4, 5]


class TestExtrapolationDecay:
    def test_inside_interval_decays(self):
        t = run_extrapolation_decay("inv1px2", [1.0, 1.1], m_max=25)
        errs = t.columns["abs_error_x=1.1"]
        assert slope(t.columns["M"][4:], errs[4:]) < 0
        assert errs[-1] < errs[0] * 1e-3

    def test_outside_interval_grows(self):
        t = run_extrapolation_decay("inv1px2", [1.5], m_max=25)
        assert slope(t.columns["M"][4:], t.columns["abs_error_x=1.5"][4:]) >= 0

    def test_slope_sign_change_between_14_and_15(self):
        t = run_extrapolation_decay("inv1px2", [1.4, 1.5], m_max=25)
        ms = t.columns["M"][4:]
        assert slope(ms, t.columns["abs_error_x=1.4"][4:]) < 0
        assert slope(ms, t.columns["abs_error_x=1.5"][4:]) > 0

    def test_second_function_interval_edge(self):
        # Reachable interval of 1/(1+2x^2) ends near 1.2247: growth at 1.3.
        t = run_extrapolation_decay("inv1p2x2", [1.1, 1.3], m_max=25)
        ms = t.columns["M"][4:]
        assert slope(ms, t.columns["abs_error_x=1.1"][4:]) < 0
        assert slope(ms, t.columns["abs_error_x=1.3"][4:]) > 0

    def test_rate_columns(self):
        t = run_extrapolation_decay("inv1px2", [1.1], m_max=3)
        expected = (1.1 + math.sqrt(0.21)) / RHO_SILVER
        assert t.columns["rate_x=1.1"] == [pytest.approx(expected)] * 3


class TestNoisePlateau:
    def test_reproducible(self):
        a = run_noise_plateau(40, [6400], s=1e-3, seed=5)
        b = run_noise_plateau(40, [6400], s=1e-3, seed=5)
        assert a.table.columns == b.table.columns
        assert a.plateaus == b.plateaus

    def test_noiseless_ratio_near_one(self):
        res = run_noise_plateau(40, [6400, 640000], s=0.0)
        ratio = res.plateaus[6400] / res.plateaus[640000]
        assert 0.5 <= ratio <= 2.0

    def test_plateau_scales_with_noise_level(self):
        # M=100 puts the coefficient tail far below the noise floor, so the
        # plateau is noise dominated and linear in s.
        lo = run_noise_plateau(100, [40000], s=1e-3, seed=7).plateaus[40000]
        hi = run_noise_plateau(100, [40000], s=2e-3, seed=7).plateaus[40000]
        assert 1.4 <= hi / lo <= 2.6

    def test_plateau_times_sqrt_n_stable(self):
        res = run_noise_plateau(100, [40_000, 400_000, 4_000_000], s=1e-3, seed=1)
        scaled = [res.plateaus[n] * math.sqrt(n) for n in (40_000, 400_000, 4_000_000)]
        assert max(scaled) / min(scaled) <= 2.0

    def test_statistic_uses_trailing_quintile(self):
        coeffs = np.concatenate([np.full(81, 100.0), np.full(20, 2.0)])
        assert plateau_statistic(coeffs) == 2.0


class TestGramTiming:
    def test_table_well_formed(self):
        t = run_gram_timing(0, [100, 1000])
        assert t.columns["N"] == [100, 1000]
        for col in ("naive_build_s", "fast_build_s", "naive_with_rhs_s", "fast_with_rhs_s"):
            assert all(v >= 0 for v in t.columns[col])

    def test_csv_roundtrip(self, tmp_path):
        t = run_gram_timing(5, [256])
        path = tmp_path / "timing.csv"
        t.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,naive_build_s,naive_with_rhs_s,fast_build_s,fast_with_rhs_s"
        assert len(lines) == 2
