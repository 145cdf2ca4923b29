import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stable_extrap.solver
from stable_extrap import (
    Basis,
    ChebyshevSeries,
    Grid,
    GridKind,
    SampleSet,
    fit,
    make_grid,
)
from stable_extrap.basis import cheb_eval
from stable_extrap.fastgram import gram_fast
from stable_extrap.solver import (
    SolverError,
    _basis_change_blocks,
    basis_change_matrix,
    psi_table,
)
from stable_extrap.vandermonde import gram_naive, design_matrix, spectral_report
from stable_extrap.verify import check_s_norm


def equispaced_samples(fn, n):
    grid = make_grid(GridKind.EQUISPACED, n)
    return SampleSet(grid, fn(grid.points))


def polynomial_samples(coeffs, basis, n):
    """Samples on the N-grid of the polynomial with these coefficients in
    `basis`, and its Chebyshev coefficients: S c for Legendre ones, whose
    samples come from the Bonnet recurrence, not from S."""
    grid = make_grid(GridKind.EQUISPACED, n)
    if basis == Basis.CHEBYSHEV:
        return SampleSet(grid, ChebyshevSeries(coeffs)(grid.points)), coeffs
    m_deg = coeffs.size - 1
    values = design_matrix(grid, m_deg, Basis.LEGENDRE) @ coeffs
    return SampleSet(grid, values), basis_change_matrix(m_deg) @ coeffs


def gram_in(basis, g):
    """The Chebyshev Gram g written in `basis`: S^T g S for Legendre, since
    V_leg = V_cheb S."""
    if basis == Basis.CHEBYSHEV:
        return g
    s = basis_change_matrix(g.shape[0] - 1)
    return s.T @ g @ s


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
        assert psi_table(0)[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_one_step(self):
        assert psi_table(1)[1] == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)

    def test_wendel_bound_and_monotonicity(self):
        table = psi_table(60)
        assert np.all(np.diff(table) < 0)
        for j in range(1, 61):
            assert table[j] ** 2 <= (j + 1) / (j + 0.5) ** 2
            assert table[j] ** 2 <= 1.0 / j

    def test_matches_gamma_ratio(self):
        table = psi_table(20)
        for i in (0, 1, 5, 20):
            expected = math.gamma(i + 0.5) / math.gamma(i + 1)
            assert table[i] == pytest.approx(expected, rel=1e-13)


class TestBasisChangeMatrix:
    def test_corner_and_first_column(self):
        s = basis_change_matrix(6)
        assert s[0, 0] == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_array_equal(s[1:, 0], np.zeros(6))

    def test_zero_pattern_and_sign(self):
        s = basis_change_matrix(11)
        for i in range(12):
            for j in range(12):
                if i > j or (i + j) % 2 == 1:
                    assert s[i, j] == 0.0
                else:
                    assert s[i, j] > 0.0

    def test_known_p2_column(self):
        # P_2 = (3 T_2 + T_0)/4
        s = basis_change_matrix(2)
        assert s[0, 2] == pytest.approx(0.25, rel=1e-14)
        assert s[2, 2] == pytest.approx(0.75, rel=1e-14)

    def test_norm_bounded_by_five(self):
        assert check_s_norm(200)[0].lhs <= 5.0

    def test_norm_matches_lapack(self):
        # check_s_norm's ||S||_2 is the larger of the parity blocks' top
        # singular values.
        worst = 0.0
        for m_deg in [*range(201), 1000]:
            ref = np.linalg.norm(basis_change_matrix(m_deg), 2)
            worst = max(worst, abs(check_s_norm(m_deg)[0].lhs - ref) / ref)
        assert worst <= 1e-13, worst

    @pytest.mark.parametrize("m_deg", [0, 1, 2, 3, 10, 99, 100, 1000])
    def test_bit_identical_to_entrywise_oracle(self, m_deg):
        s = basis_change_matrix(m_deg)
        ref = basis_change_oracle(m_deg)
        assert s.shape == ref.shape
        assert s.tobytes() == ref.tobytes()
        idx = np.arange(m_deg + 1)
        assert np.all(s[(idx[:, None] + idx[None, :]) % 2 == 1] == 0.0)

    @pytest.mark.parametrize("m_deg", [0, 1, 2, 3, 10, 99, 100, 1000])
    def test_parity_blocks_bit_identical_to_s(self, m_deg):
        s = basis_change_matrix(m_deg)
        blocks = _basis_change_blocks(m_deg)
        assert len(blocks) == min(2, m_deg + 1)
        for p, block in enumerate(blocks):
            ref = np.ascontiguousarray(s[p::2, p::2])
            assert block.shape == ref.shape
            assert block.tobytes() == ref.tobytes()

    def test_norm_memory_bounded(self):
        # The two parity blocks at M = 1000 hold 4 MB; a formed S would add
        # 8 MB (14.1 MB peak when S was built and sliced).
        tracemalloc.start()
        try:
            check_s_norm(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, peak


class TestLegendreToChebyshev:
    """S maps Legendre coefficients to the Chebyshev coefficients of the same
    polynomial, checked against Legendre values from the Bonnet recurrence."""

    def test_constant_passthrough(self):
        np.testing.assert_allclose(basis_change_matrix(2) @ [1.0, 0.0, 0.0],
                                   [1.0, 0.0, 0.0], atol=1e-15)

    def test_linear_passthrough(self):
        np.testing.assert_allclose(basis_change_matrix(1) @ [0.0, 1.0], [0.0, 1.0],
                                   atol=1e-15)

    def test_pointwise_agreement(self):
        grid = make_grid(GridKind.EQUISPACED, 20)
        out = ChebyshevSeries(basis_change_matrix(2) @ [0.0, 0.0, 1.0])
        np.testing.assert_allclose(out(grid.points),
                                   design_matrix(grid, 2, Basis.LEGENDRE)[:, 2], atol=1e-13)

    def test_random_series_pointwise(self):
        # Every Legendre series at once: V_leg = V_cheb S on the grid. The
        # worst difference measured at N = 2000 was 2.0e-14.
        grid = make_grid(GridKind.EQUISPACED, 2000)
        for m_deg in (0, 1, 2, 9, 27, 125):
            leg = design_matrix(grid, m_deg, Basis.LEGENDRE)
            via_s = design_matrix(grid, m_deg, Basis.CHEBYSHEV) @ basis_change_matrix(m_deg)
            assert np.max(np.abs(leg - via_s)) <= 1e-12, m_deg


class TestFit:
    def test_reproduces_low_degree_chebyshev(self):
        samples = equispaced_samples(lambda x: cheb_eval(2, x), 16)
        result = fit(samples, 2)
        np.testing.assert_allclose(result.series.coeffs, [0.0, 0.0, 1.0], atol=1e-12)

    def test_approximation_power_bound(self):
        # f analytic and bounded by 1.5 on the rho = 2.414 ellipse
        samples = equispaced_samples(lambda x: 1.0 / (1.0 + x * x), 400)
        result = fit(samples, 10)
        probes = np.linspace(-1.0, 1.0, 1001)
        err = np.max(np.abs(1.0 / (1.0 + probes ** 2) - result.series(probes)))
        rho, q, m = 2.414, 1.5, 10
        assert err <= 2 * q * (1 + 10 * math.sqrt(5) * (m + 1) ** 1.5) * rho ** -m / (rho - 1)

    @pytest.mark.parametrize("m,n", [(5, 100), (10, 400), (16, 1024),
                                     (25, 2500), (50, 10_000)])
    @pytest.mark.parametrize("basis", [Basis.CHEBYSHEV, Basis.LEGENDRE])
    def test_polynomial_reproduction(self, m, n, basis):
        rng = np.random.default_rng(m * n)
        coeffs = rng.uniform(-1.0, 1.0, size=m + 1)
        samples, cheb = polynomial_samples(coeffs, basis, n)
        result = fit(samples, m)
        np.testing.assert_allclose(result.series.coeffs, cheb, atol=1e-10)

    @given(m=st.integers(0, 50), extra=st.integers(0, 2000),
           basis=st.sampled_from(list(Basis)), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_reproduction_property(self, m, extra, basis, seed):
        """A degree-M polynomial, written in either basis, is reproduced at
        any N >= 4M^2 from the boundary up, for M of either parity; both
        parity blocks of the normal equations carry coefficients."""
        n = max(1, 4 * m * m + extra)
        coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=m + 1)
        samples, cheb = polynomial_samples(coeffs, basis, n)
        result = fit(samples, m)
        np.testing.assert_allclose(result.series.coeffs, cheb, atol=1e-10)

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
        result = fit(samples, 5)
        report = spectral_report(result.gram)
        assert result.gram_cond_estimate == report.cond2 ** 2
        assert result.gram_cond_estimate >= 1.0
        assert result.sigma_min == report.sigma_min

    @pytest.mark.parametrize("basis", list(Basis))
    def test_fast_route_result_holds_no_gram(self, basis, dense_fit):
        # A kept result holds O(M) numbers; its Gram, a function of (M, N)
        # alone, is rebuilt with the bits the fit solved. Written in either
        # basis, it is the dense Gram of that basis.
        samples = equispaced_samples(np.cos, 400)
        result = fit(samples, 10)
        assert not any(np.ndim(getattr(result, f.name)) == 2 for f in fields(result))
        assert not result.gram.flags.writeable
        assert spectral_report(result.gram).cond2 ** 2 == result.gram_cond_estimate
        dense = dense_fit(samples, 10, basis)
        assert np.max(np.abs(gram_in(basis, result.gram) - dense.gram)) <= 1e-10 * samples.n

    def test_degree_exceeding_samples_rejected(self):
        samples = equispaced_samples(np.cos, 100)
        with pytest.raises(ValueError, match=r"M=200 exceeds sqrt\(N\)/2=5\.00 \(N=100\)"):
            fit(samples, 200)

    def test_fast_gram_requires_chebyshev(self):
        # The fast Gram is assembled in the Chebyshev basis, the one fit
        # solves in.
        cheb = fit(equispaced_samples(np.cos, 100), 5)
        np.testing.assert_array_equal(cheb.gram, gram_fast(5, 100))

    @given(n=st.integers(16, 5000), m_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equispaced_legendre_fit_matches_dense_reference(self, n, m_frac, seed,
                                                             dense_fit):
        """The fit on an equispaced grid agrees with the dense oracle on the
        same samples, and S maps the dense Legendre fit onto it. The worst
        differences measured over 185 cases were 1.6e-14 (coefficients),
        2.9e-14 (kappa) and 1.8e-14 (through S)."""
        m_deg = int(m_frac * 0.5 * math.sqrt(n))
        grid = make_grid(GridKind.EQUISPACED, n)
        y = np.random.default_rng(seed).normal(size=n + 1)
        fast = fit(SampleSet(grid, y), m_deg)
        dense = dense_fit(SampleSet(grid, y), m_deg)
        ref = dense.coeffs
        assert np.max(np.abs(fast.series.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert fast.gram_cond_estimate == pytest.approx(dense.gram_cond_estimate, rel=1e-12)
        leg = dense_fit(SampleSet(grid, y), m_deg, Basis.LEGENDRE).coeffs
        via_s = basis_change_matrix(m_deg) @ leg
        assert np.max(np.abs(via_s - fast.series.coeffs)) <= 1e-12 * np.max(np.abs(ref))

    @given(shift=st.integers(-400, 1000), n=st.integers(16, 3000),
           m_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_linear_in_samples_bit_for_bit(self, shift, n, m_frac, seed):
        """fit(2^k y) = 2^k fit(y) to the bit, with no numpy warning, both
        where b is fitted as it is and where max|b| > 2^500 sends the samples
        through fit's power-of-two scaling, up to samples of about 1e302."""
        m_deg = int(m_frac * 0.5 * math.sqrt(n))
        grid = make_grid(GridKind.EQUISPACED, n)
        y = np.random.default_rng(seed).normal(size=n + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = fit(SampleSet(grid, y), m_deg).series.coeffs
            shifted = fit(SampleSet(grid, np.ldexp(y, shift)), m_deg).series.coeffs
        assert np.ldexp(plain, shift).tobytes() == shifted.tobytes()

    def test_fast_gram_rejects_asymmetric_grid_labelled_equispaced(self):
        # Increasing points that are not mirror-symmetric would pair the
        # equispaced Gram with a right-hand side taken at other points; the
        # label is refused where the grid is built, so no fit can take them.
        with pytest.raises(ValueError, match=r"mirror-symmetric: \|x\[0\] \+ x\[100\]\|"):
            Grid(np.linspace(-1.0, 0.9, 101), GridKind.EQUISPACED)

    def test_warns_past_conditioning_boundary(self):
        # Past M = sqrt(N)/2 fit refuses rather than warns, and the message
        # names the boundary.
        samples = equispaced_samples(np.cos, 100)
        with pytest.raises(ValueError, match=r"M=11 exceeds sqrt\(N\)/2=5\.00 \(N=100\); "
                                             r"fit needs N >= 4M\^2"):
            fit(samples, 11)

    def test_one_warning_past_conditioning_boundary(self):
        # M > sqrt(N)/2 and N < 4M^2 are one condition: one error, and no
        # warning beside it.
        samples = equispaced_samples(np.cos, 100)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"sqrt\(N\)/2"):
                fit(samples, 11)
        assert caught == []

    def test_subsampled_fit_refused(self):
        # At (M, N) = (20, 100) the fast Gram's truncated correction series
        # is off by about 1e-5 N, and no other Gram is on offer: the fit is
        # refused.
        grid = make_grid(GridKind.EQUISPACED, 100)
        y = np.random.default_rng(20).normal(size=101)
        with pytest.raises(ValueError, match=r"M=20 exceeds sqrt\(N\)/2"):
            fit(SampleSet(grid, y), 20)

    def test_square_system_fails_loudly(self):
        # Interpolation-sized systems are exponentially ill conditioned; the
        # refusal must carry the (M, N) context.
        samples = equispaced_samples(lambda x: 1.0 / (1.0 + x * x), 40)
        with pytest.raises(ValueError, match=r"M=40 exceeds sqrt\(N\)/2=3\.16 \(N=40\)"):
            fit(samples, 40)

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("m_deg", [1, 2, 5, 25])
    def test_boundary_accepted_and_one_sample_short_refused(self, m_deg, basis, dense_fit):
        # N = 4M^2 is M = sqrt(N)/2 exactly, the last degree in the regime.
        # There the fit is the dense fit in either basis (through S for
        # Legendre); the worst difference measured was 8.8e-16.
        n = 4 * m_deg * m_deg
        samples = equispaced_samples(np.cos, n)
        result = fit(samples, m_deg)
        assert result.m_degree == m_deg
        dense = dense_fit(samples, m_deg, basis).coeffs
        ref = dense if basis == Basis.CHEBYSHEV else basis_change_matrix(m_deg) @ dense
        assert np.max(np.abs(result.series.coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))
        with pytest.raises(ValueError, match=rf"M={m_deg} exceeds sqrt\(N\)/2"):
            fit(equispaced_samples(np.cos, n - 1), m_deg)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_unshifted_cholesky_succeeds_at_the_boundary(self, basis):
        # fit factors its Gram with no shift and no retry. At M <= sqrt(N)/2
        # the Chebyshev Gram has kappa <= 187.5(2M+1), so the factorization
        # cannot fail; this checks it does not at N in {4M^2, 4M^2 + 1}, and
        # that the Legendre Gram S^T G S, whose kappa verify bounds by
        # 5(2M+1), factors too. np.linalg.cholesky raises LinAlgError unless
        # the Gram is positive definite.
        for m_deg in [*range(1, 129), 200, 300, 400, 500, 600]:
            for n in (4 * m_deg * m_deg, 4 * m_deg * m_deg + 1):
                np.linalg.cholesky(gram_in(basis, gram_fast(m_deg, n)))

    def test_bits_independent_of_blas_threads(self, outputs_per_blas_thread_count):
        """LAPACK's Cholesky and eigvalsh give the same sigma_min and fit
        coefficients under one and two BLAS threads at the benchmark's
        largest degree (M = 125, N = 62500), at M = 27 and at the even
        M = 124, whose parity blocks have unequal sizes (63 and 62)."""
        n = 62_500
        script = (
            "import hashlib, numpy as np\n"
            "from stable_extrap import GridKind, SampleSet, fit, make_grid\n"
            "from stable_extrap.fastgram import gram_fast\n"
            "from stable_extrap.vandermonde import spectral_report\n"
            f"grid = make_grid(GridKind.EQUISPACED, {n})\n"
            "y = 1.0 / (1.0 + 25.0 * grid.points ** 2)\n"
            "for m in (27, 124, 125):\n"
            f"    sigma = spectral_report(gram_fast(m, {n})).sigma_min\n"
            "    coeffs = fit(SampleSet(grid, y), m).series.coeffs\n"
            "    print(hashlib.sha1(np.float64(sigma).tobytes()).hexdigest(),\n"
            "          hashlib.sha1(coeffs.tobytes()).hexdigest())\n"
        )
        outputs = outputs_per_blas_thread_count(script)
        assert len(outputs[0].splitlines()) == 3
        assert outputs[0] == outputs[1]

    def test_normal_matrix_cache_stays_bounded(self):
        # A sweep over more (M, N) than fit's cache holds keeps at most
        # maxsize entries, and a repeat (M, N) is a hit.
        cache = stable_extrap.solver._normal_matrix
        maxsize = cache.cache_info().maxsize
        assert maxsize == 2
        for n in (400, 401, 402):
            for m_deg in range(maxsize + 2):
                fit(equispaced_samples(np.cos, n), m_deg)
                assert cache.cache_info().currsize <= maxsize, (n, m_deg)
        hits = cache.cache_info().hits
        fit(equispaced_samples(np.sin, 402), maxsize + 1)
        assert cache.cache_info().hits == hits + 1

    def test_fit_after_cache_hit_matches_cold_fit_bits(self):
        # The cached Gram, factors and report give a fit the bits of one
        # that builds them, at the benchmark's largest degree.
        cache = stable_extrap.solver._normal_matrix
        n, m_deg = 62_500, 125
        runge = equispaced_samples(lambda x: 1.0 / (1.0 + 25.0 * x ** 2), n)
        other = equispaced_samples(np.cos, n)
        cache.cache_clear()
        fit(other, m_deg)
        warm = fit(runge, m_deg)
        assert cache.cache_info().hits == 1
        cache.cache_clear()
        cold = fit(runge, m_deg)
        assert cache.cache_info().misses == 1
        assert warm.series.coeffs.tobytes() == cold.series.coeffs.tobytes()
        assert np.float64(warm.sigma_min).tobytes() == np.float64(cold.sigma_min).tobytes()
        assert warm.gram_cond_estimate == cold.gram_cond_estimate

    @pytest.mark.parametrize("perturbation, raises", [(1e-12, False), (1e-9, True)])
    def test_residual_guard(self, monkeypatch, perturbation, raises):
        # Triangular solves that scale their result by 1 + delta leave the
        # normal equations a residual of about 2 delta ||b||, which the
        # guard at 1e-10 ||b|| passes at delta = 1e-12 and refuses at 1e-9.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solve(a, b) * (1.0 + perturbation))
        samples = equispaced_samples(np.cos, 400)
        if not raises:
            fit(samples, 10)
            return
        with pytest.raises(SolverError, match=r"normal-equation residual \S+ exceeds "
                                              r"tolerance \(M=10, N=400\)"):
            fit(samples, 10)

    def test_naive_chebyshev_matches_fast(self, dense_fit):
        samples = equispaced_samples(lambda x: np.exp(x), 256)
        fast = fit(samples, 8)
        naive = dense_fit(samples, 8)
        np.testing.assert_allclose(fast.series.coeffs, naive.coeffs,
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
