import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb

from stable_extrap import Basis, GridKind, make_grid
from stable_extrap.basis import cheb_eval
from stable_extrap.fastgram import gram_fast
from stable_extrap.solver import basis_change_matrix
from stable_extrap.vandermonde import (
    design_matrix,
    dominant_eigenvalue,
    dominant_singular_value,
    gram_naive,
    jacobi_eigenvalues,
    lebesgue_constant,
    spectral_report,
)


class TestDesignMatrix:
    def test_chebyshev_small(self):
        v = design_matrix(make_grid(GridKind.EQUISPACED, 2), 1, Basis.CHEBYSHEV)
        np.testing.assert_array_equal(v, [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])

    def test_legendre_third_column(self):
        v = design_matrix(make_grid(GridKind.EQUISPACED, 2), 2, Basis.LEGENDRE)
        np.testing.assert_array_equal(v[:, 2], [1.0, -0.5, 1.0])

    def test_entries_match_scalar_recurrence_bit_for_bit(self):
        grid = make_grid(GridKind.EQUISPACED, 100)
        v = design_matrix(grid, 5, Basis.CHEBYSHEV)
        assert v[17, 4] == cheb_eval(4, grid.points[17])

    def test_misuse_guard(self):
        grid = make_grid(GridKind.EQUISPACED, 8)
        with pytest.raises(ValueError):
            design_matrix(grid, 31, Basis.CHEBYSHEV)
        design_matrix(grid, 30, Basis.CHEBYSHEV)  # 30 = 10*sqrt(9), allowed


class TestGramNaive:
    def test_small_chebyshev(self):
        v = design_matrix(make_grid(GridKind.EQUISPACED, 2), 1, Basis.CHEBYSHEV)
        np.testing.assert_array_equal(gram_naive(v), [[3.0, 0.0], [0.0, 2.0]])

    def test_corner_counts_nodes(self):
        for n in (1, 9, 64):
            v = design_matrix(make_grid(GridKind.EQUISPACED, n), 1, Basis.CHEBYSHEV)
            assert gram_naive(v)[0, 0] == n + 1

    def test_odd_parity_entries_vanish(self):
        n = 64
        v = design_matrix(make_grid(GridKind.EQUISPACED, n), 7, Basis.CHEBYSHEV)
        g = gram_naive(v)
        idx = np.arange(8)
        odd = (idx[:, None] + idx[None, :]) % 2 == 1
        assert np.max(np.abs(g[odd])) <= 1e-13 * n

    def test_exact_symmetry(self):
        v = design_matrix(make_grid(GridKind.EQUISPACED, 33), 9, Basis.LEGENDRE)
        g = gram_naive(v)
        assert np.array_equal(g, g.T)

    @pytest.mark.parametrize("m,n", [(3, 16), (8, 256), (16, 1024)])
    def test_positive_semidefinite(self, m, n):
        v = design_matrix(make_grid(GridKind.EQUISPACED, n), m, Basis.CHEBYSHEV)
        lam = jacobi_eigenvalues(gram_naive(v))
        assert lam[0] >= -1e-10 * lam[-1]


class TestJacobi:
    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 13, 40, 75):
            a = rng.normal(size=(n, n))
            a = a + a.T
            got = jacobi_eigenvalues(a)
            ref = np.linalg.eigvalsh(a)
            np.testing.assert_allclose(got, ref, atol=1e-11 * np.linalg.norm(a))

    def test_small_eigenvalue_of_ill_conditioned_gram(self):
        # The square equispaced system at N=20 has kappa ~ 8.6e3, so its Gram
        # spans ~7.5e7; the smallest Gram eigenvalue from Jacobi must match
        # LAPACK's singular value of the unsquared matrix. This is the
        # measurement chain the conditioning checks rely on.
        v = design_matrix(make_grid(GridKind.EQUISPACED, 20), 20, Basis.CHEBYSHEV)
        lam = jacobi_eigenvalues(gram_naive(v))
        sv = np.linalg.svd(v, compute_uv=False)
        assert lam[0] == pytest.approx(sv[-1] ** 2, rel=1e-6)
        assert lam[-1] == pytest.approx(sv[0] ** 2, rel=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.ones((2, 3)))

    def test_single_entry(self):
        np.testing.assert_array_equal(jacobi_eigenvalues([[4.0]]), [4.0])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(jacobi_eigenvalues(np.zeros((5, 5))), np.zeros(5))

    def test_dominant_eigenvalue_matches_jacobi(self):
        rng = np.random.default_rng(11)
        b = np.abs(rng.normal(size=(60, 60)))
        a = b @ b.T  # nonnegative entries, symmetric PSD
        assert dominant_eigenvalue(a) == pytest.approx(jacobi_eigenvalues(a)[-1],
                                                       rel=1e-11)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (7, 7), (40, 25), (25, 40),
                                       (200, 200)])
    def test_dominant_singular_value_matches_eigvalsh(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            b = rng.uniform(size=shape) ** 3  # nonnegative, some entries near 0
            ref = math.sqrt(np.linalg.eigvalsh(b.T @ b)[-1])
            assert dominant_singular_value(b) == pytest.approx(ref, rel=1e-12)

    def test_dominant_singular_value_of_zero_matrix(self):
        assert dominant_singular_value(np.zeros((3, 4))) == 0.0


class TestSpectralReport:
    def test_identity(self):
        rep = spectral_report(np.eye(3))
        assert (rep.sigma_max, rep.sigma_min, rep.cond2) == (1.0, 1.0, 1.0)

    def test_diagonal(self):
        rep = spectral_report(np.diag([4.0, 1.0]))
        assert rep.sigma_max == 2.0 and rep.sigma_min == 1.0 and rep.cond2 == 2.0

    def test_chebyshev_grid_design_is_scaled_dct(self):
        # The square system on the Chebyshev grid has condition number sqrt(2).
        points = np.cos((np.arange(9) + 0.5) * math.pi / 9)
        rep = spectral_report(gram_naive(npcheb.chebvander(points, 8)))
        assert rep.cond2 == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_singular_gram_flags_infinite_cond(self):
        rep = spectral_report(np.diag([1.0, 0.0]))
        assert rep.sigma_min == 0.0 and math.isinf(rep.cond2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spectral_report(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("m_deg", [0, 1, 2, 27, 124, 125])
    def test_parity_blocks_match_whole_eigvalsh(self, m_deg, basis):
        # fit's Grams have exact zeros at m+n odd, so the report comes from
        # the two parity blocks (one at M = 0, whose odd block is empty);
        # the worst difference measured up to M = 300, in either basis, was
        # 7.5e-15 lam_max (Chebyshev, M = 238). The Legendre Gram is S^T G S,
        # formed with einsum, whose loops leave the odd-parity zeros exact.
        g = gram_fast(m_deg, max(1, 4 * m_deg * m_deg))
        if basis == Basis.LEGENDRE:
            s = basis_change_matrix(m_deg)
            sgs = np.einsum("ki,kj->ij", s, np.einsum("kl,lj->kj", g, s))
            g = 0.5 * (sgs + sgs.T)
        idx = np.arange(m_deg + 1)
        assert np.all(g[(idx[:, None] + idx[None, :]) % 2 == 1] == 0.0)
        rep = spectral_report(g)
        lam = np.linalg.eigvalsh(g)
        assert abs(rep.sigma_min ** 2 - lam[0]) <= 1e-13 * lam[-1]
        assert abs(rep.sigma_max ** 2 - lam[-1]) <= 1e-13 * lam[-1]

    @pytest.mark.parametrize("pos", [(1, 0), (5, 2), (27, 0)])
    @pytest.mark.parametrize("size", ["one entry", "symmetric pair"])
    def test_nonzero_odd_parity_entry_solves_whole(self, pos, size):
        # One nonzero entry with m+n odd (below the 1e-12 symmetry check,
        # or mirrored at 2% of the corner, which moves lambda_min by up to
        # 5%) sends g to one eigensolve of the whole matrix, with its bits.
        g = gram_fast(27, 4 * 27 * 27)
        if size == "one entry":
            g[pos] = 5e-13 * np.max(np.abs(g))
        else:
            g[pos] = g[pos[::-1]] = 0.02 * g[0, 0]  # keeps g definite
        rep = spectral_report(g)
        lam = np.linalg.eigvalsh(g)
        assert rep.sigma_min == math.sqrt(lam[0])
        assert rep.sigma_max == math.sqrt(lam[-1])

    def test_lapack_matches_jacobi_on_fast_grams(self):
        # LAPACK's error is absolute (about eps*||G||); the fast Gram's
        # kappa <= 187.5(2M+1) keeps it relative for sigma_min as well. The
        # sweep ends at M = 150 and takes in M = 125, N = 62500.
        worst = 0.0
        for m_deg in range(1, 151):
            g = gram_fast(m_deg, 4 * m_deg * m_deg)
            rep = spectral_report(g)
            lam = jacobi_eigenvalues(g)
            for got, ref in ((rep.sigma_min, lam[0]), (rep.sigma_max, lam[-1])):
                worst = max(worst, abs(got - math.sqrt(ref)) / math.sqrt(ref))
        assert worst <= 1e-12, worst


def lebesgue_constant_oracle(grid):
    """sum_j |l_j(x)| at lebesgue_constant's probes, each numerator
    prod_{k != j} (x - x_k) taken as one np.prod over the other nodes:
    O(N^2) per probe."""
    nodes = grid.points
    n1 = nodes.size
    probe_count = 500 * n1 + 1
    probes = np.linspace(-1.0, 1.0, probe_count)
    diffs = probes[:, None] - nodes[None, :]
    total = np.zeros(probe_count)
    for j in range(n1):
        mask = np.arange(n1) != j
        numer = np.prod(diffs[:, mask], axis=1)
        denom = float(np.prod(nodes[j] - nodes[mask]))
        total += np.abs(numer / denom)
    return float(np.max(total))


class TestLebesgueConstant:
    def test_matches_direct_product_oracle(self):
        # The prefix-times-suffix numerators round differently from one
        # product per probe; the largest difference measured was 4.1e-16.
        worst = 0.0
        for n in range(1, 41):
            grid = make_grid(GridKind.EQUISPACED, n)
            ref = lebesgue_constant_oracle(grid)
            worst = max(worst, abs(lebesgue_constant(grid) - ref) / ref)
        assert worst <= 1e-13, worst

    def test_probes_on_nodes_stay_finite(self):
        # At N = 4 every 625th probe is a node, where the basis polynomials
        # take the values 0 and 1.
        grid = make_grid(GridKind.EQUISPACED, 4)
        probes = np.linspace(-1.0, 1.0, 500 * 5 + 1)
        assert np.all(np.isin(grid.points, probes))
        assert math.isfinite(lebesgue_constant(grid))

    def test_equispaced_bounds(self):
        lam = lebesgue_constant(make_grid(GridKind.EQUISPACED, 10))
        assert 2 ** 8 / 100 < lam < 2 ** 13 / 10

    def test_known_value_n4(self):
        # Probed value undershoots the supremum slightly; the classical value
        # for five equispaced nodes is ~2.2078.
        lam = lebesgue_constant(make_grid(GridKind.EQUISPACED, 4))
        assert lam == pytest.approx(2.2078, abs=2e-3)
