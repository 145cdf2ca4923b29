import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from stable_extrap import basis
from stable_extrap import (
    Basis,
    ChebyshevSeries,
    Grid,
    GridKind,
    SampleSet,
    make_grid,
)
from stable_extrap.basis import cheb_eval, clenshaw_eval
from stable_extrap.vandermonde import design_matrix


class TestChebEval:
    def test_degree_zero_is_one(self):
        assert cheb_eval(0, 0.7) == 1.0

    def test_degree_three(self):
        # T_3(x) = 4x^3 - 3x forced by the recurrence
        assert cheb_eval(3, 0.5) == -1.0

    def test_degree_two_outside_interval(self):
        assert cheb_eval(2, 2.0) == 7.0

    def test_cosh_form_oracle(self):
        # For x > 1, T_k(x) = cosh(k acosh x)
        expected = math.cosh(5 * math.acosh(1.1))
        assert cheb_eval(5, 1.1) == pytest.approx(expected, rel=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            cheb_eval(-1, 0.0)

    def test_bounded_on_interval(self):
        xs = np.linspace(-1.0, 1.0, 201)
        for k in range(61):
            assert np.max(np.abs(cheb_eval(k, xs))) <= 1.0 + 1e-12

    def test_cosine_identity(self):
        thetas = np.linspace(0.0, math.pi, 101)
        for k in (0, 1, 2, 5, 17, 40, 60):
            got = cheb_eval(k, np.cos(thetas))
            np.testing.assert_allclose(got, np.cos(k * thetas), atol=1e-12)

    def test_growth_matches_cosh_form(self):
        xs = np.linspace(1.0, 3.0, 41)
        for k in (1, 7, 23, 42, 60):
            rho_r = xs + np.sqrt(xs * xs - 1.0)
            expected = (rho_r ** k + rho_r ** (-k)) / 2.0
            np.testing.assert_allclose(cheb_eval(k, xs), expected, rtol=1e-11)

    def test_matches_numpy_chebval(self):
        xs = np.linspace(-1.0, 1.2, 23)
        for k in (0, 1, 4, 11):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            np.testing.assert_allclose(cheb_eval(k, xs), npcheb.chebval(xs, unit),
                                       rtol=1e-13, atol=1e-13)


def legendre_columns(n, degree):
    """P_0, ..., P_degree on the N-grid, from the recurrence's Legendre
    branch by way of design_matrix, its one caller; column k is P_k."""
    return design_matrix(make_grid(GridKind.EQUISPACED, n), degree, Basis.LEGENDRE)


class TestLegendreEval:
    def test_degree_zero(self):
        assert np.all(legendre_columns(4, 0) == 1.0)

    def test_degree_two(self):
        # P_2 = (3x^2 - 1)/2, at x_3 = 0.5 of the 4-grid
        assert legendre_columns(4, 2)[3, 2] == pytest.approx(-0.125, abs=1e-15)

    def test_degree_four_at_zero(self):
        assert legendre_columns(4, 4)[2, 4] == pytest.approx(0.375, abs=1e-15)

    def test_matches_numpy_legval(self):
        # numpy's legval sums by Clenshaw, not by the recurrence; the worst
        # difference measured at N = 2000 was 1.2e-13.
        xs = make_grid(GridKind.EQUISPACED, 2000).points
        for m_deg in (0, 1, 2, 9, 27, 125):
            v = legendre_columns(2000, m_deg)
            ref = np.column_stack([npleg.legval(xs, unit) for unit in np.eye(m_deg + 1)])
            assert np.max(np.abs(v - ref)) <= 1e-12, m_deg

    def test_trapezium_orthogonality(self):
        # 1e6-point trapezium approximation of the pairwise product integrals
        n = 1_000_000
        h = 2.0 / n
        table = legendre_columns(n, 8)
        for m in range(9):
            for k in range(m, 9):
                prod = table[:, m] * table[:, k]
                integral = h * (np.sum(prod) - 0.5 * (prod[0] + prod[-1]))
                expected = 2.0 / (2 * k + 1) if m == k else 0.0
                assert integral == pytest.approx(expected, abs=1e-6)


class TestClenshaw:
    def test_unit_coefficient(self):
        assert clenshaw_eval([0.0, 0.0, 1.0], 0.25) == pytest.approx(-0.875, abs=1e-15)

    def test_constant_series(self):
        assert clenshaw_eval([5.0], 123.456) == 5.0

    def test_truncated_expansion_matches_term_sum(self):
        # Independent oracle: sum the series term by term with cheb_eval.
        f = npcheb.Chebyshev.interpolate(lambda x: 1.0 / (1.0 + x * x), 30)
        coeffs = f.coef
        direct = sum(c * cheb_eval(k, 0.3) for k, c in enumerate(coeffs))
        assert clenshaw_eval(coeffs, 0.3) == pytest.approx(direct, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clenshaw_eval([], 0.0)

    @given(
        coeffs=st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=12),
        x=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_term_summation(self, coeffs, x):
        direct = sum(c * cheb_eval(k, x) for k, c in enumerate(coeffs))
        scale = sum(abs(c) for c in coeffs) + 1.0
        assert abs(clenshaw_eval(coeffs, x) - direct) <= 1e-12 * scale


class TestMakeGrid:
    def test_equispaced_three_points(self):
        np.testing.assert_array_equal(make_grid(GridKind.EQUISPACED, 2).points,
                                      [-1.0, 0.0, 1.0])

    def test_equispaced_five_points(self):
        np.testing.assert_array_equal(make_grid(GridKind.EQUISPACED, 4).points,
                                      [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_equispaced_endpoints_exact(self):
        for n in (1, 7, 100, 9999):
            pts = make_grid(GridKind.EQUISPACED, n).points
            assert pts[0] == -1.0 and pts[-1] == 1.0
            assert pts.size == n + 1

    def test_equispaced_zero_rejected(self):
        with pytest.raises(ValueError):
            make_grid(GridKind.EQUISPACED, 0)

    def test_arbitrary_kind_not_built(self):
        # GridKind has the one member EQUISPACED; any other kind is refused.
        with pytest.raises(ValueError):
            make_grid("arbitrary", 3)
        with pytest.raises(ValueError):
            Grid(make_grid(GridKind.EQUISPACED, 3).points, "arbitrary")


class TestEquispacedCheck:
    """An EQUISPACED grid is checked to be x_k = 2k/N - 1 once, in Grid."""

    @given(n=st.integers(1, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_make_grid_accepted(self, n):
        grid = make_grid(GridKind.EQUISPACED, n)
        assert grid.kind == GridKind.EQUISPACED and grid.n == n

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_moved_point_named(self, data):
        """Moving x_k of the left half and its mirror x_{N-k} together by
        more than 1e-12 breaks equispacing at k; moving any one point by more
        than 1e-15 breaks the mirror pair (k, N-k). Each is refused by Grid,
        naming k. The shifts stay far below the spacing 2/N."""
        n = data.draw(st.integers(1, 100_000), label="N")
        sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        pts = make_grid(GridKind.EQUISPACED, n).points.copy()
        if data.draw(st.booleans(), label="mirror pair"):
            moved = data.draw(st.integers(0, n), label="moved")
            pts[moved] += sign * 10.0 ** data.draw(st.floats(-14.5, -6.0), label="log10 shift")
            k = min(moved, n - moved)
            match = rf"not mirror-symmetric: \|x\[{k}\] \+ x\[{n - k}\]\|"
        else:
            k = data.draw(st.integers(0, (n - 1) // 2), label="k")
            pts[k] += sign * 10.0 ** data.draw(st.floats(-11.9, -6.0), label="log10 shift")
            pts[n - k] = -pts[k]
            match = rf"not equispaced: \|x\[{k}\] - \(2\*{k}/{n} - 1\)\|"
        with pytest.raises(ValueError, match=match):
            Grid(pts, GridKind.EQUISPACED)

    def test_chebyshev_points_labelled_equispaced_rejected(self):
        # Mirror-symmetric but not equispaced: the mirror check passes and
        # the equispacing check names the first point.
        pts = np.cos((np.arange(401) + 0.5) * math.pi / 401)[::-1]
        assert np.max(np.abs(pts + pts[::-1])) <= 1e-15
        with pytest.raises(ValueError, match=r"not equispaced: \|x\[0\] - \(2\*0/400 - 1\)\|"):
            Grid(pts, GridKind.EQUISPACED)

    def test_check_allocates_one_block(self):
        """At N = 4e6 the check allocates O(block), so a Grid needs its
        point copy, 8(N+1) bytes, and at most that much more."""
        n = 4_000_000
        x = make_grid(GridKind.EQUISPACED, n).points
        tracemalloc.start()
        try:
            basis._check_equispaced(x)
            check_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            Grid(x)
            grid_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = 8 * basis._CHECK_BLOCK
        assert check_peak <= 8 * block_bytes, check_peak
        assert grid_peak <= 8 * (n + 1) + 8 * block_bytes, grid_peak

    def test_nan_point_rejected(self):
        pts = make_grid(GridKind.EQUISPACED, 4).points.copy()
        pts[3] = np.nan  # every comparison with a NaN is False
        with pytest.raises(ValueError, match=r"mirror-symmetric: \|x\[1\] \+ x\[3\]\|"):
            Grid(pts, GridKind.EQUISPACED)


class TestTypes:
    def test_grid_requires_increasing_points(self):
        with pytest.raises(ValueError):
            Grid([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            Grid([1.0, 0.0])

    def test_grid_points_immutable(self):
        g = make_grid(GridKind.EQUISPACED, 4)
        with pytest.raises(ValueError):
            g.points[0] = 5.0

    def test_series_callable(self):
        s = ChebyshevSeries([1.0, 0.0, 1.0])
        assert s(0.5) == pytest.approx(1.0 + cheb_eval(2, 0.5))
        assert s.degree == 2

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ChebyshevSeries([])

    def test_sample_set_validation(self):
        g = make_grid(GridKind.EQUISPACED, 2)
        with pytest.raises(ValueError):
            SampleSet(g, [1.0, 2.0])
        with pytest.raises(ValueError):
            SampleSet(g, [1.0, float("nan"), 2.0])
        s = SampleSet(g, [1.0, 2.0, 3.0])
        assert s.n == 2
