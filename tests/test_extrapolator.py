import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stable_extrap.extrapolator
import stable_extrap.solver
from stable_extrap import (
    GridKind,
    ProblemParams,
    Regime,
    SampleSet,
    make_grid,
    extrapolate,
)
from stable_extrap.experiments import NoiseModel, TEST_FUNCTIONS
from stable_extrap.extrapolator import (
    minimax_witness,
    optimal_degree,
    r_alpha,
)
from stable_extrap.fastgram import gram_fast
from stable_extrap.vandermonde import spectral_report

RHO_SILVER = 1.0 + math.sqrt(2.0)


def equispaced_samples(fn, n):
    grid = make_grid(GridKind.EQUISPACED, n)
    return SampleSet(grid, fn(grid.points))


class TestProblemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemParams(0, 2.0, 1e-6, 1.0)
        with pytest.raises(ValueError):
            ProblemParams(10, 1.0, 1e-6, 1.0)
        with pytest.raises(ValueError):
            ProblemParams(10, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ProblemParams(10, 2.0, 1e-6, -1.0)

    def test_degenerate_flag(self):
        assert ProblemParams(10, 2.0, 2.0, 1.0).degenerate
        assert not ProblemParams(10, 2.0, 0.5, 1.0).degenerate
        # eps = Q: log(Q/eps) = 0 forces M* = 0 as eps > Q does.
        params = ProblemParams(10, 2.0, 1.0, 1.0)
        assert params.degenerate
        assert optimal_degree(params) == (0, Regime.OVERSAMPLED, True)


class TestOptimalDegree:
    def test_double_precision_scenario(self):
        choice = optimal_degree(ProblemParams(10 ** 4, RHO_SILVER, 2.2e-16, 1.0))
        assert choice == (40, Regime.OVERSAMPLED, False)

    def test_eps_equals_q(self):
        choice = optimal_degree(ProblemParams(100, 2.0, 1.0, 1.0))
        assert choice.m_star == 0

    def test_small_n_threshold(self):
        rho = 2.0
        # log(Q/eps)/log(rho) >= 1 exactly when eps <= Q/rho
        assert optimal_degree(ProblemParams(4, rho, 0.5, 1.0)).m_star == 1
        assert optimal_degree(ProblemParams(4, rho, 0.6, 1.0)).m_star == 0

    def test_degenerate_pins_degree_to_zero(self):
        choice = optimal_degree(ProblemParams(100, 2.0, 3.0, 1.0))
        assert choice.m_star == 0 and choice.degenerate

    def test_regime_consistency(self):
        # Oversampled exactly when the log ratio is below sqrt(N)/2.
        for n, eps in ((100, 1e-3), (100, 1e-30), (10 ** 4, 1e-8), (16, 1e-1)):
            params = ProblemParams(n, RHO_SILVER, eps, 1.0)
            ratio = math.log(params.q / eps) / math.log(params.rho)
            choice = optimal_degree(params)
            assert (choice.regime == Regime.OVERSAMPLED) == (ratio < 0.5 * math.sqrt(n))


class TestRAlpha:
    def test_left_endpoint(self):
        r, alpha = r_alpha(1.0, RHO_SILVER)
        assert r == pytest.approx(1.0 / RHO_SILVER, rel=1e-15)
        assert alpha == pytest.approx(1.0, abs=5e-15)

    def test_alpha_vanishes_at_edge(self):
        edge = 0.5 * (RHO_SILVER + 1.0 / RHO_SILVER)
        _, alpha = r_alpha(edge - 1e-9, RHO_SILVER)
        assert 0.0 < alpha < 1e-4

    def test_formula_and_reciprocal_identity(self):
        r, alpha = r_alpha(1.2, RHO_SILVER)
        assert r == pytest.approx((1.2 + math.sqrt(0.44)) / RHO_SILVER, rel=1e-15)
        # (x + sqrt(x^2-1)) (x - sqrt(x^2-1)) = 1
        assert (r * RHO_SILVER) * (1.2 - math.sqrt(0.44)) == pytest.approx(1.0, rel=1e-12)

    def test_domain_rejected(self):
        edge = 0.5 * (RHO_SILVER + 1.0 / RHO_SILVER)
        for bad in (0.99, edge, edge + 0.5):
            with pytest.raises(ValueError, match="interval"):
                r_alpha(bad, RHO_SILVER)

    def test_r_strictly_increasing(self):
        xs = np.linspace(1.0, 1.4, 50)
        rs = [r_alpha(float(x), RHO_SILVER)[0] for x in xs]
        assert np.all(np.diff(rs) > 0)


class TestExtrapolate:
    def test_zero_function(self):
        params = ProblemParams(400, 2.0, 1e-10, 1.0)
        report = extrapolate(equispaced_samples(lambda x: 0.0 * x, 400),
                             params, [1.0, 1.05])
        for p in report.points:
            assert p.value == 0.0
            assert p.bound_explicit > 0.0

    def test_bound_explicit_is_the_papers_formula(self):
        # The truncation term 2Q (sqrt(N+1)(M+1)/(sigma_min (rho-1)) + r/(1-r)) r^M
        # plus the noise term (M+1) sqrt(N+1) eps/sigma_min (rho r)^M.
        params = ProblemParams(400, 2.414, 1e-12, 1.5)
        report = extrapolate(equispaced_samples(np.cos, 400), params, [1.1])
        m, sigma = report.m_star, report.sigma_min
        r, _ = r_alpha(1.1, params.rho)
        lead = 2 * params.q * (
            math.sqrt(401) * (m + 1) / (sigma * (params.rho - 1)) + r / (1 - r)
        ) * r ** m
        noise = (m + 1) * math.sqrt(401) * params.eps / sigma * (params.rho * r) ** m
        assert report.points[0].bound_explicit == pytest.approx(lead + noise, rel=1e-15)

    def test_exact_samples_error_below_bound(self):
        fn = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
        params = ProblemParams(1600, 2.414, 2.2e-16, 1.5)
        report = extrapolate(equispaced_samples(fn, 1600), params, [1.1])
        point = report.points[0]
        assert abs(float(fn(1.1)) - point.value) <= point.bound_explicit

    def test_perturbed_samples_error_below_bound(self):
        fn = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
        n, eps = 1600, 1e-8
        grid = make_grid(GridKind.EQUISPACED, n)
        signs = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
        samples = SampleSet(grid, fn(grid.points) + eps * signs)
        params = ProblemParams(n, 2.414, eps, 1.5)
        report = extrapolate(samples, params, [1.1])
        point = report.points[0]
        assert abs(float(fn(1.1)) - point.value) <= point.bound_explicit

    @given(name=st.sampled_from(sorted(TEST_FUNCTIONS)), u=st.floats(0.5, 0.95),
           n=st.integers(1, 200_000), log_eps=st.floats(-14.0, -2.0),
           noise=st.sampled_from(["none", "worst-case", "gaussian"]),
           seed=st.integers(0, 2 ** 32 - 1),
           fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_error_below_bound_property(self, name, u, n, log_eps, noise, seed, fractions):
        """|f(x) - value| <= bound_explicit for f analytic in E_rho' with
        rho' = 1 + u(rho - 1) inside its pole ellipse, Q = 1.01 max|f| over
        4096 points of that ellipse, samples perturbed by at most eps, and
        x anywhere in [1, (rho' + 1/rho')/2)."""
        test_fn = TEST_FUNCTIONS[name]
        rho = 1.0 + u * (test_fn.rho - 1.0)
        theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        ellipse = 0.5 * (rho * np.exp(1j * theta) + np.exp(-1j * theta) / rho)
        q = 1.01 * float(np.max(np.abs(test_fn.fn(ellipse))))
        eps = 10.0 ** log_eps
        model = {"none": NoiseModel.none(), "worst-case": NoiseModel.worst_case(eps),
                 "gaussian": NoiseModel.gaussian(eps / 5.0, seed)}[noise]
        grid = make_grid(GridKind.EQUISPACED, n)
        perturbation = model.draw(n + 1)
        if noise == "gaussian":
            eps = float(np.max(np.abs(perturbation)))
        samples = SampleSet(grid, test_fn.fn(grid.points) + perturbation)
        params = ProblemParams(n, rho, eps, q)
        last = math.nextafter(params.interval_edge, 1.0)  # the edge is excluded
        xs = [min(1.0 + f * (params.interval_edge - 1.0), last) for f in fractions]
        for point in extrapolate(samples, params, xs).points:
            assert abs(float(test_fn.fn(point.x)) - point.value) <= point.bound_explicit, point

    def test_factor_strictly_increasing_in_x(self):
        fn = lambda x: np.exp(np.asarray(x))
        for eps in (1e-12, 1e-3):  # undersampled and oversampled at N=100
            params = ProblemParams(100, 2.0, eps, 2.0)
            edge = params.interval_edge
            xs = np.linspace(1.0, edge - 1e-6, 40)
            report = extrapolate(equispaced_samples(fn, 100), params, xs)
            factors = [p.bound_asymptotic_factor for p in report.points]
            assert np.all(np.diff(factors) > 0)

    def test_regime_recorded(self):
        fn = lambda x: np.exp(np.asarray(x))
        over = extrapolate(equispaced_samples(fn, 10 ** 4), ProblemParams(10 ** 4, 2.0, 1e-3, 1.0), [1.1])
        assert over.regime == Regime.OVERSAMPLED
        under = extrapolate(equispaced_samples(fn, 16), ProblemParams(16, 2.0, 1e-12, 1.0), [1.1])
        assert under.regime == Regime.UNDERSAMPLED

    def test_out_of_range_point_rejected(self):
        params = ProblemParams(100, 2.0, 1e-6, 1.0)
        samples = equispaced_samples(np.cos, 100)
        with pytest.raises(ValueError, match="interval"):
            extrapolate(samples, params, [2.0])

    def test_sample_count_mismatch_rejected(self):
        params = ProblemParams(100, 2.0, 1e-6, 1.0)
        with pytest.raises(ValueError, match="N="):
            extrapolate(equispaced_samples(np.cos, 64), params, [1.0])

    def test_degenerate_level_pins_degree_to_zero(self):
        # eps > Q: nothing beyond the constant term is recoverable.
        params = ProblemParams(100, 2.0, 3.0, 1.0)
        report = extrapolate(equispaced_samples(np.cos, 100), params, [1.0])
        assert report.degenerate
        assert report.m_star == 0
        assert report.fit_result.series.degree == 0

    def test_guaranteed_sigma_variant_is_looser(self):
        # The measured sigma_min is at least the guaranteed floor
        # sqrt(2N/(125(2M*+1))), so a bound built on the floor is looser.
        fn = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
        params = ProblemParams(400, 2.414, 1e-10, 1.5)
        samples = equispaced_samples(fn, 400)
        report = extrapolate(samples, params, [1.1])
        floor = math.sqrt(2.0 * 400 / (125.0 * (2 * report.m_star + 1)))
        assert floor <= report.sigma_min

    def test_builds_gram_once(self, monkeypatch):
        # sigma_min comes from the Gram that fit solved, with the same bits
        # as a fresh gram_fast(M*, N).
        calls = []

        def counting_gram_fast(*args, **kwargs):
            calls.append(args)
            return gram_fast(*args, **kwargs)

        for module in (stable_extrap.solver, stable_extrap.extrapolator):
            monkeypatch.setattr(module, "gram_fast", counting_gram_fast)
        fn = lambda x: 1.0 / (1.0 + 25.0 * np.asarray(x) ** 2)
        n = 2500
        params = ProblemParams(n, 1.2, 1e-10, 2.0)
        report = extrapolate(equispaced_samples(fn, n), params, [1.01])
        assert calls == [(report.m_star, n)]
        expected = spectral_report(gram_fast(report.m_star, n)).sigma_min
        assert np.float64(report.sigma_min).tobytes() == np.float64(expected).tobytes()
        assert report.sigma_min == report.fit_result.sigma_min
        assert not report.fit_result.gram.flags.writeable


class TestMinimaxWitness:
    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    def test_bounded_by_eps_inside(self, eps):
        w = minimax_witness(RHO_SILVER, eps)
        xs = np.linspace(-1.0, 1.0, 10 ** 4)
        assert float(np.max(np.abs(w(xs)))) <= eps

    def test_value_at_one(self):
        # The closed form gives exactly rho^(-K-1) at x=1 (the n >= K+1 tail);
        # rho^(-K) would overshoot eps whenever the floor is not tight.
        w = minimax_witness(RHO_SILVER, 1e-8)
        assert w(1.0) == pytest.approx(RHO_SILVER ** (-w.k - 1), rel=1e-12)
        assert w(1.0) <= 1e-8

    @pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-12])
    def test_growth_lower_bound(self, eps):
        w = minimax_witness(RHO_SILVER, eps)
        for x in (1.05, 1.1, 1.2):
            r, alpha = r_alpha(x, RHO_SILVER)
            lower = w.growth_constant * eps ** alpha / (1.0 - r)
            assert w(x) >= lower * (1.0 - 1e-6)

    def test_k_floor(self):
        w = minimax_witness(RHO_SILVER, 1e-4)
        assert w.k == 10

    def test_eps_near_one_rejected(self):
        with pytest.raises(ValueError, match="K >= 1"):
            minimax_witness(RHO_SILVER, 0.9)
        with pytest.raises(ValueError):
            minimax_witness(RHO_SILVER, 1.5)

    def test_domain_enforced(self):
        w = minimax_witness(RHO_SILVER, 1e-6)
        edge = 0.5 * (RHO_SILVER + 1.0 / RHO_SILVER)
        with pytest.raises(ValueError):
            w(-1.5)
        with pytest.raises(ValueError):
            w(edge)

    def test_duality_with_oversampled_factor(self):
        # The witness growth divided by the oversampled bound factor (Q=1)
        # stays within an eps-independent constant band: both sides carry the
        # same fractional power of eps.
        edge = 0.5 * (RHO_SILVER + 1.0 / RHO_SILVER)
        xs = np.linspace(1.0, 0.95 * edge, 100)
        for eps in (1e-4, 1e-8, 1e-12):
            w = minimax_witness(RHO_SILVER, eps)
            for x in xs:
                r, alpha = r_alpha(float(x), RHO_SILVER)
                ratio = float(w(float(x))) * (1.0 - r) / eps ** alpha
                assert w.growth_constant <= ratio <= 1.0
