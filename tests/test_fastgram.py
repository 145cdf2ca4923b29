import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stable_extrap import fastgram
from stable_extrap import Basis, Grid, GridKind, make_grid
from stable_extrap.fastgram import gram_fast, rhs
from stable_extrap.vandermonde import design_matrix
from stable_extrap.verify import fc_matrix


def bernoulli_numbers(count):
    """Oracle: B_0..B_count from the defining recurrence
    sum_{j<=n} C(n+1, j) B_j = 0, exactly in rationals."""
    b = [Fraction(1)]
    for n in range(1, count + 1):
        total = sum(Fraction(math.comb(n + 1, j)) * b[j] for j in range(n))
        b.append(-total / (n + 1))
    return b


# Odd and even N, from the smallest grids up: the fold pairs x_k with x_{N-k},
# and an even N leaves a middle point that is counted once.
FOLD_N = (1, 2, 3, 4, 5, 10, 11, 100, 101, 1000, 1001, 2999, 3000)


def fold_chunks(n):
    """Chunk sizes for an N-point fold over h = ceil((N+1)/2) points: one
    point per chunk, h-1 (an even N's middle point alone in the last chunk),
    h (the middle point inside the only chunk) and one oversized chunk."""
    h = n // 2 + 1
    return sorted({1, max(h - 1, 1), h, 10 ** 9})


def rhs_in_chunks(monkeypatch, grid, y, m_deg, chunk):
    """rhs with its block size fastgram._CHUNK set to chunk."""
    with monkeypatch.context() as patch:
        patch.setattr(fastgram, "_CHUNK", chunk)
        return rhs(grid, y, m_deg)


def long_double_rhs(grid, ys, m_deg):
    """Oracle: sum_k y_k T_m(x_k) for m = 0..M and each row y of ys, by the
    plain three-term recurrence over all N+1 points in long double."""
    x = grid.points.astype(np.longdouble)
    yl = np.atleast_2d(ys).astype(np.longdouble)
    ref = np.empty((yl.shape[0], m_deg + 1), dtype=np.longdouble)
    t_prev, t_cur = np.ones_like(x), x
    ref[:, 0] = np.sum(yl, axis=1)
    for k in range(1, m_deg + 1):
        if k > 1:
            t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
        ref[:, k] = np.sum(t_cur * yl, axis=1)
    return ref


def assert_near_long_double(n, m_deg):
    """rhs within 1e-14 sum|y| of long_double_rhs on the N-point grid, for
    Gaussian y and for y = +-1 (random signs) only at |x| > 0.99, where the
    recurrence rounds worst, both drawn from the seed N."""
    grid = make_grid(GridKind.EQUISPACED, n)
    rng = np.random.default_rng(n)
    signs = rng.choice([-1.0, 1.0], size=n + 1)
    ys = (rng.normal(size=n + 1), np.where(np.abs(grid.points) > 0.99, signs, 0.0))
    for y, ref in zip(ys, long_double_rhs(grid, ys, m_deg)):
        err = np.max(np.abs(rhs(grid, y, m_deg) - ref))
        assert err <= 1e-14 * np.sum(np.abs(y)), (n, m_deg, float(err))


def long_double_chebyshev(z, m_deg):
    """Oracle: the len(z) x (M+1) matrix T_l(z_i) by the three-term
    recurrence in long double."""
    zl = np.asarray(z, dtype=np.longdouble)
    out = np.empty((zl.size, m_deg + 1), dtype=np.longdouble)
    out[:, 0] = 1
    if m_deg:
        out[:, 1] = zl
    for l in range(2, m_deg + 1):
        out[:, l] = 2 * zl * out[:, l - 1] - out[:, l - 2]
    return out


def gram_from_half_sums_oracle(h):
    """G[m, n] = h[(m+n)/2] + h[|m-n|/2], 0 for m+n odd, by fancy indexing
    over the whole matrix and a parity mask: the operands and order of
    fastgram._gram_from_half_sums's parity blocks."""
    idx = np.arange(h.size)
    t = idx[:, None] + idx[None, :]
    g = h[t // 2] + h[np.abs(idx[:, None] - idx[None, :]) // 2]
    g[t % 2 == 1] = 0.0
    return g


def exact_weights(s_max):
    """Oracle: B_{s+1}/(s+1)! for odd s <= s_max, from bernoulli_numbers."""
    b = bernoulli_numbers(s_max + 1)
    return {s: float(b[s + 1] / Fraction(math.factorial(s + 1)))
            for s in range(1, s_max + 1, 2)}


class TestBernoulliWeights:
    def test_exact_table_against_recurrence(self):
        weights = fastgram._EXACT_WEIGHTS
        assert list(weights) == [1, 3, 5, 7, 9]
        for s, exact in exact_weights(9).items():
            assert weights[s] == pytest.approx(exact, rel=1e-15)

    def test_exact_table_values(self):
        w = fastgram._EXACT_WEIGHTS
        assert w[1] == pytest.approx(1 / 12)
        assert w[3] == pytest.approx(-1 / 720)
        assert w[5] == pytest.approx(1 / 30240)
        assert w[7] == pytest.approx(-1 / 1209600)
        assert w[9] == pytest.approx(1 / 47900160)


def exact_trapezium_sums(k_max, n):
    """Oracle: sigma_k = sum_i T_k(2i/N - 1) for k = 0..k_max, exactly in
    rationals. With a = 2i - N, U_k = N^k T_k(a/N) is an integer by
    U_{k+1} = 2a U_k - N^2 U_{k-1}, so sigma_k = sum_i U_k / N^k."""
    a = [2 * i - n for i in range(n + 1)]
    prev, cur = [1] * (n + 1), list(a)
    sums = [Fraction(n + 1), Fraction(sum(cur), n)]
    for k in range(2, k_max + 1):
        prev, cur = cur, [2 * ai * u - n * n * p for ai, u, p in zip(a, cur, prev)]
        sums.append(Fraction(sum(cur), n ** k))
    return sums[:k_max + 1]


class TestTrapeziumErrorMatrix:
    """The Bernoulli corrections of the trapezium-rule identity, seen
    through gram_fast: G - (F + C) is N/2 times the correction matrix."""

    def test_corner_is_zero(self):
        assert gram_fast(1, 100)[0, 0] == fc_matrix(1, 100)[0, 0] == 101.0

    def test_odd_parity_zero(self):
        g = gram_fast(3, 100)
        assert g[1, 0] == 0.0 and g[0, 1] == 0.0 and g[2, 1] == 0.0

    def test_hand_expanded_entry(self):
        # (m, n) = (1, 1), N = 100: h_1 + h_0, where h_1 has the single
        # s = 1 correction 4/(100*1/2) * 1/12 and h_0 = N/2 + 1/2.
        expected = (100 / (2 * (1 - 4)) + 0.5 + 0.08 / 12) + (50 + 0.5)
        assert gram_fast(1, 100)[1, 1] == pytest.approx(expected, rel=1e-15)

    def test_agrees_with_direct_sum_minus_integral(self):
        # Oracle: G_mn = (sigma_{m+n} + sigma_{|m-n|})/2 with the trapezium
        # sums exact, at the boundary N = 4M^2 and one past it.
        for m_deg in range(13):
            for n in {max(4 * m_deg * m_deg, 1), 4 * m_deg * m_deg + 1}:
                sigma = exact_trapezium_sums(2 * m_deg, n)
                assert all(sigma[k] == 0 for k in range(1, 2 * m_deg + 1, 2))
                exact = np.array([[float((sigma[m + k] + sigma[abs(m - k)]) / 2)
                                   for k in range(m_deg + 1)]
                                  for m in range(m_deg + 1)])
                err = np.max(np.abs(gram_fast(m_deg, n) - exact))
                assert err <= 1e-15 * n, (m_deg, n, err / n)

    def test_undersampled_is_flagged_not_warned(self):
        # N < 4M^2 is the condition fit refuses (M > sqrt(N)/2); the Gram
        # itself neither warns nor raises.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram_fast(10, 100)

    def test_exactly_symmetric(self):
        for m_deg, n in ((9, 400), (0, 1), (1, 1), (125, 62500)):
            g = gram_fast(m_deg, n)
            assert np.array_equal(g, g.T)

    def test_truncation_robustness(self, monkeypatch):
        # Extending the table with the exact s = 11..19 weights changes
        # nothing measurable while M <= sqrt(N)/2.
        cases = ((5, 100), (20, 1600), (40, 6400))
        g9 = [gram_fast(m_deg, n) for m_deg, n in cases]
        monkeypatch.setattr(fastgram, "_EXACT_WEIGHTS", exact_weights(19))
        for (m_deg, n), short in zip(cases, g9):
            g19 = gram_fast(m_deg, n)
            assert np.max(np.abs(short - g19)) <= 1e-12 * n


class TestGramFast:
    def test_corner_entry(self):
        for n in (1, 5, 1000):
            assert gram_fast(0, n)[0, 0] == n + 1
            assert gram_fast(3, n)[0, 0] == n + 1

    def test_odd_entries_exactly_zero(self):
        g = gram_fast(9, 400)
        idx = np.arange(10)
        odd = (idx[:, None] + idx[None, :]) % 2 == 1
        assert np.all(g[odd] == 0.0)
        assert np.count_nonzero(g) == np.count_nonzero(~odd)

    def test_exactly_symmetric(self):
        g = gram_fast(12, 700)
        assert np.array_equal(g, g.T)

    def test_sum_of_squares_entry_exact(self):
        # (1,1) entry is sum x_k^2 = N/3 + 1 + 2/(3N); check against the
        # direct sum for small N where it is computable exactly.
        for n in (2, 4, 10):
            grid = make_grid(GridKind.EQUISPACED, n)
            direct = float(np.sum(grid.points ** 2))
            assert gram_fast(1, n)[1, 1] == pytest.approx(direct, rel=1e-15)

    def test_blocks_bit_identical_to_fancy_index_oracle(self, monkeypatch):
        # The windowed parity blocks add the same two entries of h in the
        # same order as the whole-matrix oracle, so every bit agrees: for
        # random h, for gram_fast at N = 4M^2 and for verify's F+C matrix.
        for m_deg in [*range(131), 300, 600]:
            h = np.random.default_rng(m_deg).normal(size=m_deg + 1)
            g = fastgram._gram_from_half_sums(h)
            assert g.tobytes() == gram_from_half_sums_oracle(h).tobytes(), m_deg
            n = max(1, 4 * m_deg * m_deg)
            fast, fc = gram_fast(m_deg, n), fc_matrix(m_deg, n)
            with monkeypatch.context() as patch:
                patch.setattr(fastgram, "_gram_from_half_sums", gram_from_half_sums_oracle)
                assert fast.tobytes() == gram_fast(m_deg, n).tobytes(), m_deg
            assert fc.tobytes() == gram_from_half_sums_oracle(
                fastgram._integral_half_sums(m_deg, n)).tobytes(), m_deg

    @pytest.mark.parametrize("m_deg", [5, 10, 20, 40, 80])
    @pytest.mark.parametrize("factor", [4, 16, 64])
    def test_matches_naive(self, m_deg, factor, gram_oracle):
        n = factor * m_deg * m_deg
        assert np.max(np.abs(gram_fast(m_deg, n) - gram_oracle(m_deg, n))) <= 1e-10 * n


class TestRhs:
    def test_zero_samples(self):
        grid = make_grid(GridKind.EQUISPACED, 16)
        np.testing.assert_array_equal(rhs(grid, np.zeros(17), 4), np.zeros(5))

    def test_odd_even_orthogonality(self):
        grid = make_grid(GridKind.EQUISPACED, 10)
        b = rhs(grid, grid.points, 1)  # samples = T_1 column
        assert b[0] == pytest.approx(0.0, abs=1e-15)
        assert b[1] == pytest.approx(float(np.sum(grid.points ** 2)), rel=1e-15)

    @pytest.mark.parametrize("n, m_deg", [(4098, 32), (12_287, 27), (12_288, 27),
                                          (40_001, 27), (62_500, 125), (1_000_000, 35)])
    def test_parity_of_mirrored_samples_exact(self, n, m_deg):
        """Mirrored samples (y_k = y_{N-k}) give odd entries of b that are
        exactly zero, and antisymmetric ones (y_k = -y_{N-k}) even entries,
        on the panel path too, with several products per proxy batch at the
        larger sizes, no points past the last whole panel (N = 12287) and
        only the middle point there (N = 12288): the fit's parity rests on
        it."""
        w = fastgram._panel_width(m_deg + 1)
        assert n // 2 + 1 >= 2 * w >= 8 * (m_deg + 1) and n >= 4 * m_deg ** 2
        grid = make_grid(GridKind.EQUISPACED, n)
        y = np.random.default_rng(n).normal(size=n + 1)
        for sign, other in ((1.0, slice(1, None, 2)), (-1.0, slice(0, None, 2))):
            mirrored = y + sign * y[::-1]
            b = rhs(grid, mirrored, m_deg)
            assert np.all(b[other] == 0.0), (sign, b[other])
            assert np.any(b != 0.0)

    def test_matches_dense_product(self, monkeypatch):
        for n in FOLD_N:
            grid = make_grid(GridKind.EQUISPACED, n)
            y = np.random.default_rng(5).normal(size=n + 1)
            for m_deg in sorted({0, 1, 2, min(n, 20), min(n, 40)}):
                v = design_matrix(grid, m_deg, Basis.CHEBYSHEV)
                dense = v.T @ y
                for chunk in fold_chunks(n):
                    np.testing.assert_allclose(
                        rhs_in_chunks(monkeypatch, grid, y, m_deg, chunk), dense, rtol=1e-11,
                        err_msg=f"N={n}, M={m_deg}, chunk={chunk}")

    def test_chunking_does_not_change_result(self, monkeypatch):
        for n in (2999, 3000):
            grid = make_grid(GridKind.EQUISPACED, n)
            y = np.random.default_rng(9).normal(size=n + 1)
            full = rhs_in_chunks(monkeypatch, grid, y, 7, 10 ** 9)
            for chunk in (128, *fold_chunks(n)):
                np.testing.assert_allclose(
                    rhs_in_chunks(monkeypatch, grid, y, 7, chunk), full, rtol=1e-13,
                    err_msg=f"N={n}, chunk={chunk}")
        # Panels: _CHUNK sets only the proxy batches here, down to one panel
        # per batch (and so per product) at _CHUNK = 1.
        n, m_deg = 40_001, 27
        w = fastgram._panel_width(m_deg + 1)
        assert n // 2 + 1 >= 2 * w >= 8 * (m_deg + 1) and n >= 4 * m_deg ** 2
        grid = make_grid(GridKind.EQUISPACED, n)
        y = np.random.default_rng(9).normal(size=n + 1)
        full = rhs_in_chunks(monkeypatch, grid, y, m_deg, 10 ** 9)
        for chunk in (1, 5 * (m_deg + 1), w, 3 * w):
            np.testing.assert_allclose(
                rhs_in_chunks(monkeypatch, grid, y, m_deg, chunk), full, rtol=1e-13,
                err_msg=f"N={n}, chunk={chunk}")

    @pytest.mark.parametrize("moved, first_k", [(3, 3), (8, 2)])
    def test_asymmetric_grid_rejected(self, moved, first_k):
        pts = make_grid(GridKind.EQUISPACED, 10).points.copy()
        pts[moved] += 1e-3
        with pytest.raises(ValueError,
                           match=rf"mirror-symmetric: \|x\[{first_k}\] \+ x\[{10 - first_k}\]\|"):
            Grid(pts, GridKind.EQUISPACED)

    @pytest.mark.parametrize("moved, k", [(2, 2), (9, 1)])
    def test_non_equispaced_point_named(self, moved, k):
        # Moving x[2] and x[8] (or x[1] and x[9]) together keeps the grid
        # mirror-symmetric; the offender is named by its left-half index.
        pts = make_grid(GridKind.EQUISPACED, 10).points.copy()
        pts[moved] += 1e-3
        pts[10 - moved] -= 1e-3
        with pytest.raises(ValueError, match=rf"not equispaced: \|x\[{k}\] - \(2\*{k}/10 - 1\)\|"):
            Grid(pts, GridKind.EQUISPACED)

    @pytest.mark.parametrize("n", [1, 2, 400, 40_001])
    def test_linspace_grid_accepted(self, n):
        # np.linspace is off from 2k/N - 1 by at most a few ulps.
        pts = np.linspace(-1.0, 1.0, n + 1)
        assert np.max(np.abs(pts - make_grid(GridKind.EQUISPACED, n).points)) <= 2.3e-16
        y = np.random.default_rng(n).normal(size=n + 1)
        m_deg = min(n, 10)
        np.testing.assert_allclose(
            rhs(Grid(pts, GridKind.EQUISPACED), y, m_deg),
            rhs(make_grid(GridKind.EQUISPACED, n), y, m_deg),
            rtol=1e-12, atol=1e-12 * n)

    def test_single_point_grid_rejected(self):
        with pytest.raises(ValueError, match="N >= 1"):
            Grid(np.zeros(1), GridKind.EQUISPACED)

    def test_bits_independent_of_blas_threads(self, outputs_per_blas_thread_count):
        """OpenBLAS splits dot products longer than about 1e4 across threads;
        with chunks longer than that, rhs must still give the same bits under
        OPENBLAS_NUM_THREADS 1, 2 and 4 (the fixture checks that at least two
        distinct thread counts ran; 4 runs as 2 on a 2-processor host)."""
        n, m_deg = 300_000, 10
        chunk = fastgram._CHUNK
        assert chunk > 10 ** 4 and (n // 2 + 1) // chunk >= 3
        script = (
            "import hashlib, numpy as np\n"
            "from stable_extrap import GridKind, make_grid\n"
            "from stable_extrap.fastgram import rhs\n"
            f"grid = make_grid(GridKind.EQUISPACED, {n})\n"
            f"y = np.random.default_rng(3).normal(size={n + 1})\n"
            f"print(hashlib.sha1(rhs(grid, y, {m_deg}).tobytes()).hexdigest())\n"
        )
        digests = outputs_per_blas_thread_count(script, ("1", "2", "4"))
        assert digests[0] == digests[1] == digests[2]

    def test_bits_independent_of_blas_threads_at_benchmark_shapes(
            self, outputs_per_blas_thread_count):
        """At the benchmark's shapes (N, M) = (4e6, 27), (62500, 125) and
        (1e6, 35) the panel products run, and rhs gives the same bits under
        OPENBLAS_NUM_THREADS 1, 2 and 4, with the default _CHUNK and with
        every panel in one proxy batch. A product's height does not follow
        _CHUNK: on OpenBLAS 0.3.31 a (P x w) @ (w x K) product gave other
        bits under two threads than under one once P >= 33, at K = 36
        (w = 1024) and at K = 101 and 126 (w = 512), so with every panel in
        one product the _CHUNK = 10**9 arm failed at (62500, 125)."""
        shapes = ((4_000_000, 27), (62_500, 125), (1_000_000, 35))
        for n, m_deg in shapes:
            w = fastgram._panel_width(m_deg + 1)
            assert n // 2 + 1 >= w >= 4 * (m_deg + 1)
        script = (
            "import hashlib, numpy as np\n"
            "from stable_extrap import GridKind, fastgram, make_grid\n"
            "from stable_extrap.fastgram import rhs\n"
            f"for n, m in {shapes!r}:\n"
            "    grid = make_grid(GridKind.EQUISPACED, n)\n"
            "    y = np.random.default_rng(n).normal(size=n + 1)\n"
            "    for chunk in (16384, 10 ** 9):\n"
            "        fastgram._CHUNK = chunk\n"
            "        b = rhs(grid, y, m)\n"
            "        print(hashlib.sha1(b.tobytes()).hexdigest())\n"
        )
        outputs = outputs_per_blas_thread_count(script, ("1", "2", "4"))
        assert len(outputs[0].splitlines()) == 2 * len(shapes)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_moment_product_bits_independent_of_blas_threads(
            self, outputs_per_blas_thread_count):
        """_proxy_weights's two BLAS products, left @ lam and mirror @ lam,
        and lam itself, have the same bits under
        OPENBLAS_NUM_THREADS 1, 2 and 4 at every shape rhs can issue: each
        K = M+1 that compresses (w >= 4K, w from _panel_width) and each
        block of P = 1 .. _PRODUCT_POINTS // w panels."""
        script = (
            "import hashlib, numpy as np\n"
            "from stable_extrap import fastgram\n"
            "digest, shapes = hashlib.sha1(), 0\n"
            "rng = np.random.default_rng(0)\n"
            "k = 1\n"
            "while (w := fastgram._panel_width(k)) >= 4 * k:\n"
            "    lam, _ = fastgram._panel_operators(k, w)\n"
            "    digest.update(lam.tobytes())\n"
            "    rows = fastgram._PRODUCT_POINTS // w\n"
            "    left, right, mirror = rng.normal(size=(3, rows, w))\n"
            "    scratch, nu = np.empty((2, 2, rows, k))\n"
            "    for p in range(1, rows + 1):\n"
            "        fastgram._proxy_weights(left[:p], right[:p, ::-1], lam,\n"
            "                                mirror[:p], scratch[:, :p], nu[:, :p])\n"
            "        digest.update(scratch[:, :p].tobytes() + nu[:, :p].tobytes())\n"
            "        shapes += 1\n"
            "    k += 1\n"
            "print(shapes, digest.hexdigest())\n"
        )
        outputs = outputs_per_blas_thread_count(script, ("1", "2", "4"))
        # K = 1..32 at w = 2048, 33..64 at 1024 and 65..128 at 512.
        assert outputs[0].split()[0] == b"2816"
        assert outputs[0] == outputs[1] == outputs[2]

    def test_merge_product_bits_independent_of_blas_threads(
            self, outputs_per_blas_thread_count):
        """_merge_weights's BLAS products, (Q x GK) @ (GK x K), and the merge
        matrix itself, have the same bits under OPENBLAS_NUM_THREADS 1, 2
        and 4 at every shape rhs can issue: each K = M+1 that compresses,
        its G, and each Q = 1 .. _MERGE_ROWS groups per product, for both
        parities."""
        script = (
            "import hashlib, numpy as np\n"
            "from stable_extrap import fastgram\n"
            "digest, shapes = hashlib.sha1(), 0\n"
            "rng = np.random.default_rng(0)\n"
            "k = 1\n"
            "while fastgram._panel_width(k) >= 4 * k:\n"
            "    group = fastgram._group_size(k)\n"
            "    merge = fastgram._merge_operator(k, group)\n"
            "    digest.update(merge.tobytes())\n"
            "    rows = fastgram._MERGE_ROWS\n"
            "    nu = rng.normal(size=(2, rows * group, k))\n"
            "    mu = np.empty((2, rows, k))\n"
            "    for q in range(1, rows + 1):\n"
            "        fastgram._merge_weights(nu[:, :q * group], merge, mu[:, :q])\n"
            "        digest.update(mu[:, :q].tobytes())\n"
            "        shapes += 1\n"
            "    k += 1\n"
            "print(shapes, digest.hexdigest())\n"
        )
        outputs = outputs_per_blas_thread_count(script, ("1", "2", "4"))
        # K = 1..128, four heights each.
        assert outputs[0].split()[0] == b"512"
        assert outputs[0] == outputs[1] == outputs[2]

    def test_panel_operators_cached_read_only(self):
        lam, tau = fastgram._panel_operators(126, 512)
        assert fastgram._panel_operators(126, 512)[0] is lam
        assert fastgram._panel_operators(126, 1024)[0] is not lam
        assert fastgram._panel_operators(125, 512)[0] is not lam
        assert lam.shape == (512, 126) and lam.flags.c_contiguous
        for a in (lam, tau):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    @pytest.mark.parametrize("n_coeffs", [1, 2, 28, 32, 33, 36, 64, 65, 101, 126, 128])
    def test_anterpolation_matrix(self, n_coeffs):
        """lam[i, k] = l_k(t_i), the Lagrange cardinal polynomials of the K
        Chebyshev points at the local nodes, at w = 2048, 1024 and 512: each
        row sums to 1 (l_0 + ... + l_M = 1), and lam T(tau) reproduces
        T_l(t_i) for every l <= M, both against long-double references.
        Over every K = 1..128 that compresses, the largest errors were
        5.1e-14 (row sums) and 1.3e-13 (T_l); the bounds leave about 2x."""
        w = fastgram._panel_width(n_coeffs)
        assert w >= 4 * n_coeffs
        lam, tau = fastgram._panel_operators(n_coeffs, w)
        exact = lam.astype(np.longdouble)
        assert np.max(np.abs(exact.sum(axis=1) - 1)) <= 1e-13
        t = (2.0 * np.arange(w) - (w - 1)) / w
        cheb_t, cheb_tau = (long_double_chebyshev(z, n_coeffs - 1) for z in (t, tau))
        assert np.max(np.abs(exact @ cheb_tau - cheb_t)) <= 3e-13

    def test_merge_operator(self):
        """The G K x K merge matrix holds l_k'(u_{j,k}), the cardinal
        polynomials of the K Chebyshev points at the child proxies
        u_{j,k} = (2j + 1 - G + tau_k)/G of G adjacent panels, for every
        K = M+1 that compresses, at G from _group_size: each row sums to 1,
        and merge T(tau) reproduces T_l(u_{j,k}) for every l <= M, both
        against long-double references. The largest errors were 4.8e-14
        (row sums, K = 120) and 6.3e-13 (T_l, K = 114); the bounds leave
        about 2x. It is cached and read-only."""
        k, widths = 1, set()
        while (w := fastgram._panel_width(k)) >= 4 * k:
            group = fastgram._group_size(k)
            assert group * k * k <= fastgram._PANEL_ENTRIES < 2 * group * k * k or k == 1
            merge = fastgram._merge_operator(k, group)
            assert fastgram._merge_operator(k, group) is merge
            assert merge.shape == (group * k, k) and not merge.flags.writeable
            tau = fastgram._panel_operators(k, w)[1]
            u = ((2.0 * np.arange(group) + (1 - group))[:, None] + tau) / group
            exact = merge.astype(np.longdouble)
            assert np.max(np.abs(exact.sum(axis=1) - 1)) <= 1e-13, k
            cheb_u, cheb_tau = (long_double_chebyshev(z, k - 1) for z in (u.reshape(-1), tau))
            assert np.max(np.abs(exact @ cheb_tau - cheb_u)) <= 1.3e-12, k
            widths.add(w)
            k += 1
        assert k == 129 and widths == {512, 1024, 2048}
        assert [fastgram._group_size(k) for k in (1, 28, 36, 126)] == [1, 64, 32, 4]

    @pytest.mark.parametrize("n, m_deg", [(4_000_000, 27), (62_500, 125), (1_000_000, 35)])
    def test_extra_memory_bounded(self, n, m_deg):
        # Cold, with the panel and merge operators built inside the traced
        # call, and warm, with them cached: 1.56 and 0.69 MB measured at
        # (4e6, 27).
        grid = make_grid(GridKind.EQUISPACED, n)
        y = np.random.default_rng(1).normal(size=n + 1)
        fastgram._panel_operators.cache_clear()
        fastgram._merge_operator.cache_clear()
        for state in ("cold", "warm"):
            tracemalloc.start()
            try:
                rhs(grid, y, m_deg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3e6, (state, peak)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than float64 here")
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_long_double_recurrence(self, data):
        """|b - b_ref| <= 1e-14 sum|y| against the plain recurrence over all
        N+1 points in long double. M is drawn mostly from the compressed
        range M <= 127 and often at 127 (w = 4(M+1), the last compressed
        degree) and 128. Half the draws put the folded half within two
        points of a multiple of the panel width, at N >= 4M^2 where the
        panels run. In that regime half the draws put y = +-1 (random signs)
        only at |x| > 0.99, where the recurrence rounds worst and Gaussian y
        hides it; past it the bound does not hold for such y, and fit never
        goes there."""
        m_deg = data.draw(st.one_of(st.integers(0, 127), st.integers(0, 300),
                                    st.sampled_from([31, 127, 128])), label="M")
        w = fastgram._panel_width(m_deg + 1)
        most = 100_000 // w
        fewest = min(-(-2 * m_deg * m_deg // w) or 1, most)  # N >= 4M^2
        half = data.draw(st.one_of(
            st.integers(1, 100_001),
            st.builds(lambda j, off: max(1, j * w + off),
                      st.integers(fewest, most), st.integers(-2, 2))), label="half")
        n = max(1, 2 * (half - 1) + data.draw(st.integers(0, 1), label="N odd"))
        m_deg = min(m_deg, n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        grid = make_grid(GridKind.EQUISPACED, n)
        if n >= 4 * m_deg * m_deg and data.draw(st.booleans(), label="y only near +-1"):
            signs = rng.choice([-1.0, 1.0], size=n + 1)
            y = np.where(np.abs(grid.points) > 0.99, signs, 0.0)
        else:
            y = rng.normal(size=n + 1) + data.draw(st.sampled_from([0.0, 3.0]), label="offset")
        err = np.max(np.abs(rhs(grid, y, m_deg) - long_double_rhs(grid, y, m_deg)[0]))
        assert err <= 1e-14 * np.sum(np.abs(y)), (n, m_deg, float(err))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than float64 here")
    def test_matches_long_double_recurrence_at_panel_width_switches(self):
        """The bound of the Hypothesis test above, at fixed draws on both
        sides of each panel-width switch (w = 2048, 1024, 512 for M = 31, 63,
        127, and the next width or the plain recurrence one degree up), at
        the smallest N the panels run at, one past it and 4 times it, for
        Gaussian y and for y = +-1 only at |x| > 0.99."""
        for m_deg in (31, 32, 63, 64, 127, 128):
            for n in (4 * m_deg ** 2, 4 * m_deg ** 2 + 1, 16 * m_deg ** 2):
                assert_near_long_double(n, m_deg)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than float64 here")
    @pytest.mark.parametrize("m_deg", [27, 31, 63, 125, 127])
    def test_matches_long_double_recurrence_at_panel_multiples(self, m_deg):
        """The bound of the Hypothesis test above at fixed sizes around
        multiples of the panel width: half = jw - 1, jw and jw + 1 for
        j = 1, 2, 3 and for the first two j at which the panels run
        (N >= 4M^2), each at an odd and an even N, for Gaussian y and for
        y = +-1 only at |x| > 0.99. These pin the plain recurrence at fewer
        than two whole panels (j = 1), an exact multiple that leaves no
        points past the last whole panel (half = jw, N odd) and one that
        leaves only the middle point there (half = jw + 1, N even)."""
        w = fastgram._panel_width(m_deg + 1)
        first_j = -(-(2 * m_deg ** 2 + 2) // w)  # jw - 1 >= 2M^2 + 1
        for j in sorted({1, 2, 3, first_j, first_j + 1}):
            for half in (j * w - 1, j * w, j * w + 1):
                for n in (2 * half - 2, 2 * half - 1):
                    if n >= 4 * m_deg ** 2:
                        assert_near_long_double(n, m_deg)

    def test_length_mismatch_rejected(self):
        grid = make_grid(GridKind.EQUISPACED, 4)
        with pytest.raises(ValueError):
            rhs(grid, np.zeros(4), 2)
