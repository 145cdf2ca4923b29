
import json
from pathlib import Path

import numpy as np
import pytest

from stable_extrap import Basis, GridKind, make_grid, run_suite
from stable_extrap.vandermonde import design_matrix, gram_naive
from stable_extrap.verify import (
    check_dplusc,
    check_fplusc,
    check_gram_condition,
    check_interpolation_sandwich,
    check_s_norm,
    check_singular_bounds,
    dc_matrix,
    fc_matrix,
    gerschgorin_interval,
    parity_matrix,
)
from stable_extrap import verify

CERTIFY_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "certify_reference.json"


class TestGerschgorin:
    def test_identity(self):
        assert gerschgorin_interval(np.eye(4)) == (1.0, 1.0)

    def test_small_disks(self):
        a = np.array([[2.0, 0.1], [0.1, 5.0]])
        lo, hi = gerschgorin_interval(a)
        assert lo == pytest.approx(1.9) and hi == pytest.approx(5.1)

    def test_dplusc_similarity_reaches_proof_bound(self):
        m, n = 30, 1000
        a = dc_matrix(m, n)
        p = n / (2.0 * np.arange(m + 1) + 1.0)
        lo, _ = gerschgorin_interval(a, p)
        assert lo >= (n - 0.5 * m * m) / (2 * m + 1)

    def test_similarity_sharpens_dplusc_lower_bound(self):
        for m in range(4, 40, 5):
            n = 4 * m * m
            a = dc_matrix(m, n)
            p = n / (2.0 * np.arange(m + 1) + 1.0)
            plain_lo, _ = gerschgorin_interval(a)
            sharp_lo, _ = gerschgorin_interval(a, p)
            assert sharp_lo > plain_lo

    def test_soundness_on_random_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a = rng.normal(size=(20, 20))
            a = a + a.T
            lam = np.linalg.eigvalsh(a)
            lo, hi = gerschgorin_interval(a)
            assert lo <= lam[0] and lam[-1] <= hi

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gerschgorin_interval(np.ones((2, 3)))
        with pytest.raises(ValueError):
            gerschgorin_interval(np.eye(2), np.array([1.0, -1.0]))


class TestStructuredMatrices:
    def test_parity(self):
        np.testing.assert_array_equal(parity_matrix(2),
                                      [[1, 0, 1], [0, 1, 0], [1, 0, 1]])

    def test_dc_small(self):
        np.testing.assert_allclose(dc_matrix(1, 16),
                                   [[17.0, 0.0], [0.0, 16.0 / 3.0 + 1.0]])

    def test_fc_diagonal_values(self):
        f = fc_matrix(1, 16)
        assert f[0, 0] == 17.0            # N + 1
        assert f[1, 1] == pytest.approx(16.0 / 3.0 + 1.0)
        assert f[0, 1] == 0.0 and f[1, 0] == 0.0


class TestSingularValueChecks:
    @pytest.mark.parametrize("m,n", [(5, 100), (16, 1024)])
    def test_legendre_bounds_pass(self, m, n):
        results = check_singular_bounds(m, n)[:2]
        assert all(r.passed for r in results)

    def test_legendre_m0_measures_n_plus_one(self):
        upper, lower = check_singular_bounds(0, 64)[:2]
        assert upper.lhs == pytest.approx(65.0, rel=1e-12)
        assert upper.passed and lower.passed
        assert "N+1" in upper.note

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_m0_sigma_max_sq_is_exactly_n_plus_one(self, n):
        # sigma1^2 = N+1 meets the cap 2N with equality at N = 1; the
        # squared SVD value would overshoot it by one rounding.
        results = check_singular_bounds(0, n)
        assert results[0].lhs == n + 1 and results[2].lhs == n + 1
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("basis", [Basis.LEGENDRE, Basis.CHEBYSHEV])
    @pytest.mark.parametrize("m,n", [(4, 64), (8, 256), (16, 1024), (32, 4096),
                                     (5, 100), (10, 400), (25, 2500)])
    def test_design_spectrum_matches_gram_oracle(self, m, n, basis):
        # Every (M, N) of run_suite("all")'s singular-values and
        # conditioning suites: the SVD of V against eigvalsh of the naive
        # V^T V. The largest difference measured was 1.1e-14.
        lam = verify._design_spectrum(m, n, basis)
        v = design_matrix(make_grid(GridKind.EQUISPACED, n), m, basis)
        ref = np.linalg.eigvalsh(gram_naive(v))
        assert lam.shape == ref.shape
        for got, want in ((lam[0], ref[0]), (lam[-1], ref[-1])):
            assert abs(got - want) <= 1e-12 * want, (got, want)

    def test_requires_oversampling(self):
        for check in (check_singular_bounds, check_gram_condition):
            with pytest.raises(ValueError, match="sqrt"):
                check(11, 100)

    @pytest.mark.parametrize("m,n", [(5, 100), (10, 400), (25, 2500)])
    def test_chebyshev_bounds_pass(self, m, n):
        results = check_singular_bounds(m, n)[2:]
        assert all(r.passed for r in results)

    def test_chebyshev_m0(self):
        results = check_singular_bounds(0, 64)[2:]
        assert results[0].lhs == pytest.approx(65.0, rel=1e-12)
        assert results[0].rhs == 3 * 64
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("m,n", [(5, 100), (10, 400), (16, 1024), (25, 2500)])
    def test_gram_condition_numbers(self, m, n):
        leg, cheb = check_gram_condition(m, n)
        assert cheb.passed and cheb.rhs == 187.5 * (2 * m + 1)
        assert leg.passed and leg.rhs == 5.0 * (2 * m + 1)


class TestAppendixChecks:
    def test_dplusc_two_by_two(self):
        lam_max, lam_min = check_dplusc(1, 16)
        assert lam_max.lhs == pytest.approx(17.0)
        assert lam_max.rhs == pytest.approx(18.0)
        assert lam_max.passed and lam_min.passed

    def test_dplusc_large(self):
        assert all(r.passed for r in check_dplusc(30, 3600))

    def test_fplusc(self):
        (r,) = check_fplusc(1, 16)
        assert r.lhs == pytest.approx(17.0)
        assert r.rhs == pytest.approx(33.0)
        for m, n in ((5, 100), (30, 3600)):
            assert all(x.passed for x in check_fplusc(m, n))

    @pytest.mark.parametrize("check", [check_dplusc, check_fplusc])
    def test_no_samples_rejected(self, check):
        # N = 0 has no grid; F+C's 1x1 matrix would report N+1 = 1 > 1/2.
        with pytest.raises(ValueError, match="N >= 1"):
            check(0, 0)

    @pytest.mark.parametrize("check", [check_dplusc, check_fplusc])
    def test_smallest_sizes_pass(self, check):
        assert all(r.passed for r in check(0, 1))

    def test_s_norm_chain(self):
        for m in (10, 100):
            norm5, chain, range5 = check_s_norm(m)
            assert norm5.passed and chain.passed and range5.passed
            assert norm5.rhs == 5.0

    def test_s_norm_monotone_growth(self):
        # Observed norms grow slowly toward a limit well below the bound.
        values = [check_s_norm(m)[0].lhs for m in (10, 50, 100)]
        assert values[0] < values[1] < values[2] < 5.0


class TestSandwich:
    def test_degenerate_single_node(self):
        results = check_interpolation_sandwich(0)
        assert all(r.passed for r in results)

    def test_n4_all_pass(self):
        results = check_interpolation_sandwich(4)
        assert all(r.passed for r in results)

    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    def test_stated_lower_inequality_fails_in_measurement(self, n):
        # The as-stated lower comparison Lambda <= kappa_2 does not hold in
        # measurement (the Chebyshev grid is a counterexample to the general
        # claim: kappa_2 = sqrt(2) there while Lambda grows like log N). The
        # check records the failure; the provable weak form and the upper
        # inequality both hold.
        by_name = {r.name: r for r in check_interpolation_sandwich(n)}
        assert not by_name["sandwich-lower"].passed
        assert by_name["sandwich-lower-weak"].passed
        assert by_name["sandwich-upper"].passed

    def test_exponential_growth_trend(self):
        # kappa_2 grows by orders of magnitude every few N (measured 740.9 at
        # N=16 and 8641.2 at N=20).
        kappas = {n: {r.name: r for r in check_interpolation_sandwich(n)}
                  ["sandwich-upper"].lhs for n in (12, 16, 20)}
        assert kappas[16] / kappas[12] > 5
        assert kappas[20] / kappas[16] > 5
        assert kappas[20] > 5e3


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_results_sorted_by_name(self):
        results = run_suite("conditioning")
        keys = [(r.name, sorted(r.params.items())) for r in results]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("suite", ["conditioning", "gerschgorin", "s-norm"])
    def test_oversampled_suites_all_pass(self, suite):
        # Every check with M <= sqrt(N)/2 passes; the sandwich suite is the
        # square (M = N) system and is exercised separately.
        results = run_suite(suite, m_degree=100 if suite == "s-norm" else None)
        assert results and all(r.passed for r in results)

    def test_singular_values_suite_passes(self):
        results = run_suite("singular-values")
        assert len(results) == 16
        assert all(r.passed for r in results)

    def test_gerschgorin_suite_override(self):
        results = run_suite("gerschgorin", m_degree=10, n_samples=400)
        assert all(r.passed for r in results)
        assert all(r.params == {"M": 10, "N": 400} for r in results)

    def test_no_spectrum_cache_outlives_a_call(self, monkeypatch):
        # run_suite("all") computes 16 design spectra, one per basis in each
        # of its eight design-spectrum checks, and a second call computes
        # them all again.
        calls = []
        compute = verify._design_spectrum

        def counting(m_degree, n_samples, basis):
            calls.append((m_degree, n_samples, basis))
            return compute(m_degree, n_samples, basis)

        monkeypatch.setattr(verify, "_design_spectrum", counting)
        first = run_suite("all")
        assert len(calls) == 16
        assert run_suite("all") == first
        assert len(calls) == 32

    def test_shared_spectra_change_no_result(self):
        # Each check alone gives the bits run_suite gives.
        alone = []
        for n in (64, 256, 1024, 4096):
            m = int(0.5 * n ** 0.5)
            alone += check_singular_bounds(m, n)
        for m, n in ((5, 100), (10, 400), (16, 1024), (25, 2500)):
            alone += check_gram_condition(m, n)
        suite = run_suite("singular-values") + run_suite("conditioning")
        key = lambda c: (c.name, sorted(c.params.items()))
        assert sorted(suite, key=key) == sorted(alone, key=key)

    def test_all_suite_matches_certify_reference(self):
        # The benchmark's reference values, recorded when every check ran on
        # Jacobi or power iteration over the full matrices; the file is read,
        # never written.
        with open(CERTIFY_REFERENCE, encoding="utf-8") as fh:
            reference = {(c["name"], json.dumps(sorted(c["params"].items()))): c
                         for c in json.load(fh)}
        results = run_suite("all")
        keys = [(r.name, json.dumps(sorted(r.params.items()))) for r in results]
        assert sorted(keys) == sorted(reference)
        for key, r in zip(keys, results):
            ref = reference[key]
            assert r.passed == ref["passed"], key
            for got, want in ((r.lhs, ref["lhs"]), (r.rhs, ref["rhs"])):
                assert abs(got - want) <= 1e-9 * max(abs(got), abs(want)), (key, got, want)

    def test_all_suite_bits_independent_of_blas_threads(self, outputs_per_blas_thread_count):
        """Every lhs and rhs of run_suite("all"), and ||S||_2 and
        2 lambda_max(S+) for M = 150, 160, ..., 1000, have the same bits
        under one and two BLAS threads. eigvalsh on the parity blocks changes
        run_suite's bits at M = 1000; a power iteration on a formed S^T S,
        whose matrix product rounds by thread count, changed ||S||_2 at a few
        M of the sweep on a 2-vCPU OpenBLAS 0.3.31 host."""
        script = (
            "import hashlib, struct\n"
            "from stable_extrap import run_suite\n"
            "h = hashlib.sha1()\n"
            "for r in run_suite('all'):\n"
            "    h.update(r.name.encode() + repr(sorted(r.params.items())).encode())\n"
            "    h.update(struct.pack('<dd', r.lhs, r.rhs))\n"
            "print(h.hexdigest())\n"
            "from stable_extrap.verify import check_s_norm\n"
            "norms = []\n"
            "for m in range(150, 1001, 10):\n"
            "    checks = check_s_norm(m)\n"
            "    norms += [checks[0].lhs, checks[2].lhs]\n"
            "print(hashlib.sha1(struct.pack(f'<{len(norms)}d', *norms)).hexdigest())\n"
        )
        outputs = outputs_per_blas_thread_count(script)
        assert len(outputs[0].splitlines()) == 2
        assert outputs[0] == outputs[1]
