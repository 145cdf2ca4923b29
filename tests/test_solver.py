import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stable_extrap
from stable_extrap import (
    Basis,
    BasisChangeMatrix,
    ChebyshevSeries,
    GramMethod,
    Grid,
    GridKind,
    LegendreSeries,
    SampleSet,
    SolverError,
    basis_change_matrix,
    cheb_eval,
    fit,
    gram_naive,
    design_matrix,
    legendre_eval,
    legendre_to_chebyshev,
    make_grid,
    psi,
    psi_table,
    spectral_report,
)
from stable_extrap.solver import _solve_spd


def equispaced_samples(fn, n):
    grid = make_grid(GridKind.EQUISPACED, n)
    return SampleSet(grid, fn(grid.points))


def basis_change_oracle(m_degree):
    """S entry by entry, in the evaluation order of the formula."""
    table = psi_table(m_degree + 1)
    s = np.zeros((m_degree + 1, m_degree + 1))
    for j in range(0, m_degree + 1, 2):
        s[0, j] = table[j // 2] ** 2 / math.pi
    for j in range(1, m_degree + 1):
        for i in range(2 - (j % 2), j + 1, 2):
            s[i, j] = 2.0 / math.pi * table[(j - i) // 2] * table[(j + i) // 2]
    return s


class TestPsi:
    def test_base_value(self):
        assert psi(0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_one_step(self):
        assert psi(1) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)

    def test_wendel_bound_and_monotonicity(self):
        table = psi_table(60)
        assert np.all(np.diff(table) < 0)
        for j in range(1, 61):
            assert table[j] ** 2 <= (j + 1) / (j + 0.5) ** 2
            assert table[j] ** 2 <= 1.0 / j

    def test_matches_gamma_ratio(self):
        for i in (0, 1, 5, 20):
            expected = math.gamma(i + 0.5) / math.gamma(i + 1)
            assert psi(i) == pytest.approx(expected, rel=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            psi(-1)


class TestBasisChangeMatrix:
    def test_corner_and_first_column(self):
        s = basis_change_matrix(6).entries
        assert s[0, 0] == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_array_equal(s[1:, 0], np.zeros(6))

    def test_zero_pattern_and_sign(self):
        s = basis_change_matrix(11).entries
        for i in range(12):
            for j in range(12):
                if i > j or (i + j) % 2 == 1:
                    assert s[i, j] == 0.0
                else:
                    assert s[i, j] > 0.0

    def test_known_p2_column(self):
        # P_2 = (3 T_2 + T_0)/4
        s = basis_change_matrix(2).entries
        assert s[0, 2] == pytest.approx(0.25, rel=1e-14)
        assert s[2, 2] == pytest.approx(0.75, rel=1e-14)

    def test_norm_bounded_by_five(self):
        assert basis_change_matrix(200).norm2() <= 5.0

    def test_norm_matches_lapack(self):
        # norm2 is the larger of the parity blocks' top singular values.
        worst = 0.0
        for m_deg in [*range(201), 1000]:
            s = basis_change_matrix(m_deg)
            ref = np.linalg.norm(s.entries, 2)
            worst = max(worst, abs(s.norm2() - ref) / ref)
        assert worst <= 1e-13, worst

    @pytest.mark.parametrize("m_deg", [0, 1, 2, 3, 10, 99, 100, 1000])
    def test_bit_identical_to_entrywise_oracle(self, m_deg):
        s = basis_change_matrix(m_deg).entries
        ref = basis_change_oracle(m_deg)
        assert s.shape == ref.shape
        assert s.tobytes() == ref.tobytes()
        idx = np.arange(m_deg + 1)
        assert np.all(s[(idx[:, None] + idx[None, :]) % 2 == 1] == 0.0)

    @pytest.mark.parametrize("pos", [(0, 1), (3, 0), (2, 5)])
    def test_norm_rejects_nonzero_odd_parity_entry(self, pos):
        s = basis_change_matrix(6).entries.copy()
        s[pos] = 1e-3
        with pytest.raises(ValueError, match="odd-parity"):
            BasisChangeMatrix(s).norm2()


class TestLegendreToChebyshev:
    def test_constant_passthrough(self):
        out = legendre_to_chebyshev(LegendreSeries([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.coeffs, [1.0, 0.0, 0.0], atol=1e-15)

    def test_linear_passthrough(self):
        out = legendre_to_chebyshev(LegendreSeries([0.0, 1.0]))
        np.testing.assert_allclose(out.coeffs, [0.0, 1.0], atol=1e-15)

    def test_pointwise_agreement(self):
        out = legendre_to_chebyshev(LegendreSeries([0.0, 0.0, 1.0]))
        xs = np.linspace(-1.0, 1.0, 21)
        np.testing.assert_allclose(out(xs), legendre_eval(2, xs), atol=1e-13)

    def test_random_series_pointwise(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=9)
        leg = LegendreSeries(coeffs)
        cheb = legendre_to_chebyshev(leg)
        xs = np.linspace(-1.0, 1.0, 33)
        np.testing.assert_allclose(cheb(xs), leg(xs), atol=1e-12)


class TestFit:
    def test_reproduces_low_degree_chebyshev(self):
        samples = equispaced_samples(lambda x: cheb_eval(2, x), 16)
        result = fit(samples, 2)
        np.testing.assert_allclose(result.series.coeffs, [0.0, 0.0, 1.0], atol=1e-12)
        assert result.method == GramMethod.FAST

    def test_approximation_power_bound(self):
        # f analytic and bounded by 1.5 on the rho = 2.414 ellipse
        samples = equispaced_samples(lambda x: 1.0 / (1.0 + x * x), 400)
        result = fit(samples, 10)
        probes = np.linspace(-1.0, 1.0, 1001)
        err = np.max(np.abs(1.0 / (1.0 + probes ** 2) - result.series(probes)))
        rho, q, m = 2.414, 1.5, 10
        assert err <= 2 * q * (1 + 10 * math.sqrt(5) * (m + 1) ** 1.5) * rho ** -m / (rho - 1)

    def test_legendre_route_agrees_with_chebyshev_route(self):
        samples = equispaced_samples(lambda x: 1.0 / (1.0 + x * x), 400)
        direct = fit(samples, 10, basis=Basis.CHEBYSHEV)
        via_leg = legendre_to_chebyshev(fit(samples, 10, basis=Basis.LEGENDRE).series)
        np.testing.assert_allclose(via_leg.coeffs, direct.series.coeffs, atol=1e-9)

    @pytest.mark.parametrize("m,n", [(5, 100), (10, 400), (16, 1024),
                                     (25, 2500), (50, 10_000)])
    @pytest.mark.parametrize("basis", [Basis.CHEBYSHEV, Basis.LEGENDRE])
    def test_polynomial_reproduction(self, m, n, basis):
        rng = np.random.default_rng(m * n)
        coeffs = rng.uniform(-1.0, 1.0, size=m + 1)
        series = (ChebyshevSeries(coeffs) if basis == Basis.CHEBYSHEV
                  else LegendreSeries(coeffs))
        samples = equispaced_samples(series, n)
        result = fit(samples, m, basis=basis)
        np.testing.assert_allclose(result.series.coeffs, coeffs, atol=1e-10)

    def test_coefficient_bound(self):
        # Fitted coefficients inherit the geometric decay of the expansion,
        # up to the aliasing term controlled by the smallest singular value.
        rho, q = 2.414, 1.5
        for m, n in ((10, 400), (15, 900)):
            samples = equispaced_samples(lambda x: 1.0 / (1.0 + x * x), n)
            result = fit(samples, m)
            grid = make_grid(GridKind.EQUISPACED, n)
            sigma_min = spectral_report(
                gram_naive(design_matrix(grid, m, Basis.CHEBYSHEV))).sigma_min
            tail = math.sqrt(n + 1) / sigma_min * rho ** -m / (rho - 1)
            for k, c in enumerate(result.series.coeffs):
                assert abs(c) <= 2 * q * (rho ** -k + tail)

    def test_gram_cond_estimate(self):
        samples = equispaced_samples(np.cos, 100)
        result = fit(samples, 5, compute_cond=True)
        assert result.gram_cond_estimate is not None
        assert result.gram_cond_estimate >= 1.0
        assert fit(samples, 5).gram_cond_estimate is None

    def test_degree_exceeding_samples_rejected(self):
        samples = equispaced_samples(np.cos, 100)
        with pytest.raises(ValueError, match="exceeds N"):
            fit(samples, 200)

    def test_fast_gram_requires_chebyshev(self):
        samples = equispaced_samples(np.cos, 100)
        with pytest.raises(ValueError, match="Chebyshev"):
            fit(samples, 5, basis=Basis.LEGENDRE, gram_method=GramMethod.FAST)

    def test_fast_gram_requires_equispaced(self):
        grid = make_grid(GridKind.CHEBYSHEV_FIRST_KIND, 100)
        samples = SampleSet(grid, np.cos(grid.points))
        with pytest.raises(ValueError, match="equispaced"):
            fit(samples, 5, gram_method=GramMethod.FAST)
        result = fit(samples, 5)  # falls back to the dense route
        assert result.method == GramMethod.NAIVE

    def test_fast_gram_rejects_asymmetric_grid_labelled_equispaced(self):
        # Increasing points that are not mirror-symmetric would pair the
        # equispaced Gram with a right-hand side taken at other points.
        grid = Grid(np.linspace(-1.0, 0.9, 101), GridKind.EQUISPACED)
        samples = SampleSet(grid, np.cos(grid.points))
        for method in (GramMethod.FAST, None):
            with pytest.raises(ValueError, match=r"mirror-symmetric: \|x\[0\] \+ x\[100\]\|"):
                fit(samples, 5, gram_method=method)

    def test_fast_gram_rejects_chebyshev_points_labelled_equispaced(self):
        # First-kind Chebyshev points are mirror-symmetric, so only the
        # equispacing check in rhs stands between them and a fit that pairs
        # the equispaced Gram with samples taken elsewhere.
        pts = make_grid(GridKind.CHEBYSHEV_FIRST_KIND, 400).points
        samples = SampleSet(Grid(pts, GridKind.EQUISPACED), np.exp(pts))
        with pytest.raises(ValueError, match=r"not equispaced: \|x\[0\] - \(2\*0/400 - 1\)\|"):
            fit(samples, 10)

    def test_warns_past_conditioning_boundary(self):
        samples = equispaced_samples(np.cos, 100)
        with pytest.warns(UserWarning, match="sqrt"):
            result = fit(samples, 11)
        assert any("sqrt" in w for w in result.warnings)

    def test_square_system_fails_loudly(self):
        # Interpolation-sized systems are exponentially ill conditioned; the
        # factorization failure must carry the (M, N) context.
        samples = equispaced_samples(lambda x: 1.0 / (1.0 + x * x), 40)
        with pytest.warns(UserWarning):
            with pytest.raises(SolverError, match="M=40, N=40"):
                fit(samples, 40)

    def test_shift_retry_solves_singular_psd(self):
        # [[1, 1], [1, 1]] is semidefinite: the plain Cholesky fails and the
        # 1e-14*trace shift makes it definite.
        coeffs, shifted = _solve_spd(np.ones((2, 2)), np.array([1.0, 1.0]), 1, 1)
        assert shifted
        assert np.all(np.isfinite(coeffs))
        np.testing.assert_allclose(np.ones((2, 2)) @ coeffs, [1.0, 1.0], rtol=1e-12)

    def test_bits_independent_of_blas_threads(self):
        """LAPACK's Cholesky and eigvalsh give the same sigma_min and fit
        coefficients under one and two BLAS threads at the benchmark's
        largest degree (M = 125, N = 62500) and at M = 27."""
        n = 62_500
        script = (
            "import hashlib, numpy as np\n"
            "from stable_extrap import (GridKind, SampleSet, fit, gram_fast,\n"
            "                           make_grid, spectral_report)\n"
            f"grid = make_grid(GridKind.EQUISPACED, {n})\n"
            "y = 1.0 / (1.0 + 25.0 * grid.points ** 2)\n"
            "for m in (27, 125):\n"
            f"    sigma = spectral_report(gram_fast(m, {n}).matrix).sigma_min\n"
            "    coeffs = fit(SampleSet(grid, y), m).series.coeffs\n"
            "    print(hashlib.sha1(np.float64(sigma).tobytes()).hexdigest(),\n"
            "          hashlib.sha1(coeffs.tobytes()).hexdigest())\n"
        )
        src = str(Path(stable_extrap.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout.strip())
        assert len(outputs[0].splitlines()) == 2
        assert outputs[0] == outputs[1]

    def test_naive_chebyshev_matches_fast(self):
        samples = equispaced_samples(lambda x: np.exp(x), 256)
        fast = fit(samples, 8, gram_method=GramMethod.FAST)
        naive = fit(samples, 8, gram_method=GramMethod.NAIVE)
        np.testing.assert_allclose(fast.series.coeffs, naive.series.coeffs,
                                   rtol=1e-10, atol=1e-14)


class TestParity:
    """On the mirrored equispaced grid the Gram's odd-parity entries are zero
    and the folded right-hand side of mirrored (antisymmetric) samples has
    exactly zero odd (even) entries, so the Cholesky solve keeps the other
    parity's coefficients exactly zero."""

    @pytest.mark.parametrize("n_parity", [0, 1], ids=["N+1 even", "N+1 odd"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["mirrored", "antisymmetric"])
    @given(pairs=st.integers(1, 2500), seed=st.integers(0, 2 ** 32 - 1),
           m_frac=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_other_parity_coefficients_exactly_zero(self, sign, n_parity, pairs, seed, m_frac):
        n = 2 * pairs - 1 + n_parity  # N odd: no middle point; N even: one
        m_deg = int(m_frac * 0.5 * math.sqrt(n))
        rng = np.random.default_rng(seed)
        left = rng.normal(size=pairs)
        middle = rng.normal(size=n + 1 - 2 * pairs)
        if sign < 0:
            middle[:] = 0.0  # an antisymmetric middle sample is zero
        y = np.concatenate([left, middle, sign * left[::-1]])
        coeffs = fit(SampleSet(make_grid(GridKind.EQUISPACED, n), y), m_deg).series.coeffs
        other_parity = coeffs[1::2] if sign > 0 else coeffs[0::2]
        assert np.all(other_parity == 0.0), other_parity
