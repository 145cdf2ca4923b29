"""Fast assembly of the equispaced Chebyshev normal equations.

By T_m T_n = (T_{m+n} + T_{|m-n|})/2, each Gram entry sum_i T_m(x_i) T_n(x_i)
is (sigma_{m+n} + sigma_{|m-n|})/2, where sigma_k = sum_i T_k(x_i) is one
trapezium sum on the equispaced grid; sigma_k = 0 for odd k by the grid's
mirror symmetry. So the (M+1) x (M+1) matrix is Toeplitz plus Hankel in the
M+1 numbers h_j = sigma_{2j}/2, and each h_j is the integral of T_{2j} plus
an endpoint term plus a correction series with weighted-Bernoulli
coefficients: O(M) numbers and O(M^2) assembly, independent of N.

The right-hand side b_m = sum_k y_k T_m(x_k) is the one O(MN) step. The
grid is a union of translates of one set of local nodes, so rhs moves each
panel of w samples onto K_leaf Chebyshev proxies with one fixed w x K_leaf
matrix of Lagrange cardinal values (the anterpolation step of fast
multipole and NUFFT-type methods). A panel is short on the scale of T_M,
so the degree-M polynomials it carries need far fewer than K = M+1
proxies: K_leaf comes from a Bernstein-ellipse bound on their coefficient
tail, below 1e-17, and is 16 at (N, M) = (4e6, 27). It takes one BLAS
product per block of panels and side of the grid's mirror, the left side a
view of the samples and the right one a reversed copy in a buffer of one
block, at shapes fixed by w and K_leaf, about N K_leaf multiply-adds. One
level up, one fixed matrix moves the K_leaf proxies of each of a group of
G panels onto K proxies of their union, exactly for degree M (the upward
pass of the fast multipole method), so the three-term recurrence runs over
only K proxies per G panels.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .basis import Basis, Grid, _recurrence

_CHUNK = 16384  # rhs: folded points per plain block, and proxies per batch
# rhs panels: at most this many points, and the panel matrix l_k(t_i) at
# most this many entries (512 KB).
_PANEL_MAX = 2048
_PANEL_ENTRIES = 65536
# Samples per panel product and groups per merge product in rhs, whatever
# _CHUNK is: the bits of a taller product can depend on the BLAS thread
# count (see rhs).
_PRODUCT_POINTS = 16384
_MERGE_ROWS = 4
# rhs: how far a panel's proxies may miss each T_m, m <= M, on the panel (a
# tenth of double's unit roundoff; _leaf_size).
_LEAF_TAIL = 1e-17

# B_{s+1}/(s+1)! for the odd correction orders s; even-order corrections
# vanish identically. Under M <= sqrt(N)/2 each factor (k^2 - l^2)/(N(l+1/2))
# of an order-s product is at most 1/(l+1/2) in size, because k^2 <= 4M^2 <= N
# and l^2 < N, so order s adds at most 2^(s+1)/(2s-1)!! |B_{s+1}/(s+1)!| to a
# Gram entry: 1.6e-16 at s = 11, and less at every later order. The Gram's
# norm is about N, so those orders lie below its rounding and the table
# stops at s = 9.
_EXACT_WEIGHTS = {
    1: 1.0 / 12.0,
    3: -1.0 / 720.0,
    5: 1.0 / 30240.0,
    7: -1.0 / 1209600.0,
    9: 1.0 / 47900160.0,
}


def _integral_half_sums(m_degree: int, n_samples: int) -> np.ndarray:
    """N/(2(1-k^2)) + 1/2 at k = 0, 2, ..., 2M: half of the trapezium sum
    sigma_k without its Bernoulli corrections, that is N/2 times the integral
    of T_k over [-1, 1] plus half the endpoint term T_k(-1) + T_k(1) = 2."""
    k_sq = (2.0 * np.arange(m_degree + 1)) ** 2
    return n_samples / (2.0 * (1.0 - k_sq)) + 0.5


def _gram_from_half_sums(h: np.ndarray) -> np.ndarray:
    """The matrix G[m, n] = h[(m+n)/2] + h[|m-n|/2] for m+n even and 0 for
    m+n odd, with m, n = 0..len(h)-1. The two terms are added in the same
    order at (m, n) and (n, m), so G is exactly symmetric.

    Block p = G[p::2, p::2] has entry (a, b) = h[p+a+b] + h[|a-b|]: a Hankel
    plus a Toeplitz zero-copy window on h, added into a zeroed G."""
    size = h.size
    g = np.zeros((size, size))
    windows = np.lib.stride_tricks.sliding_window_view
    for p in range(min(2, size)):
        n = (size - 1 - p) // 2 + 1
        # toeplitz[a, b] = h[|a - b|]: padded[j + n - 1] = h[|j|].
        padded = np.concatenate((h[n - 1:0:-1], h[:n]))
        toeplitz = windows(padded, n)[::-1]
        np.add(windows(h[p:p + 2 * n - 1], n), toeplitz, out=g[p::2, p::2])
    return g


def gram_fast(m_degree: int, n_samples: int) -> np.ndarray:
    """Equispaced Chebyshev Gram matrix in O(M^2), independent of N.

    G = _gram_from_half_sums(h) with h_j = sigma_{2j}/2, k = 2j, given by
    the trapezium-rule identity

        h_j = N/(2(1-k^2)) + 1/2
              + sum over odd s <= 9 of B_{s+1}/(s+1)! prod_{l<s} (k^2-l^2)/(N(l+1/2)),

    whose untruncated series ends at s = k - 1, since every later product
    holds the factor k^2 - k^2 = 0; _EXACT_WEIGHTS says why s <= 9 suffices
    under M <= sqrt(N)/2. Past that boundary the truncated series is no longer
    accurate, so fit refuses such a degree. At k = 0 every product is 0, so
    G[0, 0] = 2 h_0 = N+1 exactly.
    """
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    if n_samples < 1:
        raise ValueError("sample count N must be positive")
    n = float(n_samples)
    k_sq = (2.0 * np.arange(m_degree + 1)) ** 2
    corrections = np.zeros(m_degree + 1)
    product = k_sq / (0.5 * n)  # the l = 0 factor
    done = 1
    for s, weight in _EXACT_WEIGHTS.items():
        for l in range(done, s):
            product = product * ((k_sq - l * l) / (n * (l + 0.5)))
        done = s
        corrections += weight * product
    return _gram_from_half_sums(_integral_half_sums(m_degree, n_samples) + corrections)


def _parity_sums(z: np.ndarray, even_w: np.ndarray, odd_w: np.ndarray,
                 m_degree: int) -> np.ndarray:
    """sum_i T_m(z_i) w_i for m = 0..M, with w = even_w for even m and
    odd_w for odd m: the three-term recurrence, in place in buffers of z's
    length, each degree reduced by numpy's own einsum (np.sum for degree 0)
    in a fixed order."""
    out = np.zeros(m_degree + 1)
    out[0] = even_w.sum()
    if m_degree == 0:
        return out
    t_prev, t_next, z2 = np.ones(z.size), np.empty(z.size), 2.0 * z
    t_cur = z.copy()
    out[1] = np.einsum("i,i->", t_cur, odd_w)
    for k in range(2, m_degree + 1):
        np.multiply(z2, t_cur, out=t_next)
        t_next -= t_prev
        t_prev, t_cur, t_next = t_cur, t_next, t_prev
        out[k] = np.einsum("i,i->", t_cur, odd_w if k % 2 else even_w)
    return out


def _panel_width(n_coeffs: int) -> int:
    """Largest power of two <= min(_PANEL_MAX, _PANEL_ENTRIES / (M+1))."""
    cap = min(_PANEL_MAX, _PANEL_ENTRIES // n_coeffs)
    return 1 << (cap.bit_length() - 1)


def _leaf_size(m_degree: int, n: int, width: int) -> int:
    """K_leaf, the proxies a panel of `width` points needs at degree M on
    the N-point grid: the Bernstein-ellipse bound's count rounded up to a
    power of two, and at most K = M+1.

    On a panel x = c + delta t, delta = w/N, |c| <= 1, let t lie in
    Bernstein's ellipse E_rho, where |t| <= (rho + 1/rho)/2. Then
    |x - 1| + |x + 1| <= 2 + e with e = delta (rho + 1/rho), so x lies inside
    the ellipse with foci +-1 of parameter R = 1 + e/2 + sqrt(e + e^2/4),
    where |T_m(x)| <= R^m. So the Chebyshev interpolant of
    q = T_m(c + delta t), m <= M, in K_leaf points of t misses q by at most
    4 R^M rho^(1-K_leaf)/(rho-1), twice the bound on its coefficient tail
    (Trefethen, Approximation Theory and Approximation Practice, Thm 8.2).
    The count is the fewest K_leaf that bring that below _LEAF_TAIL at one
    of rho = 2, 4, ..., 1024. The bound holds on every panel, so on the
    first compressed one, next to x = -1, where the coefficients fall
    slowest. It gives sum_i s_i q(t_i) = sum_k nu_k q(tau_k) to within
    _LEAF_TAIL sum|s|, and sum|s| <= sum|y|.

    Each term falls as N grows (delta shrinks), so K_leaf is non-increasing
    in N; rho <= 1024 keeps the count at 6 or more, and the powers of two leave
    at most {8, 16, 32, 64} below each K, so the shapes rhs can issue are
    few enough to test every one. K_leaf is 16 at (N, M) = (4e6, 27) and
    (1e6, 35), and 32 at (62500, 125)."""
    rho = 2.0 ** np.arange(1, 11)
    e = width / n * (rho + 1.0 / rho)
    log_r = np.log1p(0.5 * e + np.sqrt(e + 0.25 * e * e))
    need = 1.0 + (m_degree * log_r - np.log(0.25 * (rho - 1.0) * _LEAF_TAIL)) / np.log(rho)
    return min(m_degree + 1, 1 << (int(np.ceil(need.min())) - 1).bit_length())


def _group_size(n_leaf: int, n_coeffs: int) -> int:
    """Largest power of two G with G K_leaf K <= _PANEL_ENTRIES: 128 at
    (K_leaf, K) = (16, 28), 64 at (16, 36) and 16 at (32, 126), so the
    G K_leaf x K merge matrix is at most 512 KB. At K = 1 (M = 0) it is 1:
    there the recurrence is one sum, which a merge cannot shorten, and a
    merge product would be a dot product of 65536 terms, whose bits
    OpenBLAS 0.3.31 changed under two threads."""
    if n_coeffs == 1:
        return 1
    cap = _PANEL_ENTRIES // (n_leaf * n_coeffs)
    return 1 << (cap.bit_length() - 1)


def _chebyshev_points(n_coeffs: int) -> np.ndarray:
    """The K Chebyshev points tau_k = cos((k+1/2)pi/K), k = 0..K-1."""
    return np.cos((np.arange(n_coeffs) + 0.5) * np.pi / n_coeffs)


def _cardinal_values(n_coeffs: int, t: np.ndarray) -> np.ndarray:
    """The len(t) x K matrix l_k(t_i) of the Lagrange cardinal polynomials
    l_k of the K Chebyshev points tau_k = cos((k+1/2)pi/K), as
    l_k(t) = sum_{l<K} (c_l/K) T_l(t) T_l(tau_k) with c_0 = 1 and c_l = 2
    otherwise, summed by numpy's own einsum in a fixed order."""
    k = n_coeffs
    theta = (np.arange(k) + 0.5) * np.pi / k
    cheb_at_t = np.empty((t.size, k))
    for m, t_m in enumerate(_recurrence(Basis.CHEBYSHEV, t, k - 1)):
        cheb_at_t[:, m] = t_m
    scale = np.full(k, 2.0 / k)
    scale[0] = 1.0 / k
    cheb_at_tau = scale[:, None] * np.cos(np.arange(k)[:, None] * theta)
    return np.einsum("im,mk->ik", cheb_at_t, cheb_at_tau)


@lru_cache(maxsize=8)
def _panel_operators(n_leaf: int, width: int):
    """The fixed, read-only matrices of a panel of `width` points and
    K_leaf proxies, cached per (K_leaf, w).

    Returns (lam, tau): the K_leaf Chebyshev points tau_k (_chebyshev_points)
    and the C-contiguous w x K_leaf anterpolation matrix lam[i, k] = l_k(t_i)
    (_cardinal_values) at the local nodes t_i = (2i - (w-1))/w.
    """
    tau = _chebyshev_points(n_leaf)
    t = (2.0 * np.arange(width) - (width - 1)) / width  # exact in binary
    lam = _cardinal_values(n_leaf, t)
    lam.flags.writeable = tau.flags.writeable = False
    return lam, tau


@lru_cache(maxsize=8)
def _merge_operator(n_leaf: int, n_coeffs: int, group: int) -> np.ndarray:
    """The fixed, read-only G K_leaf x K matrix that moves the proxy weights
    of G adjacent panels, K_leaf each, onto the K proxies of their union,
    cached per (K_leaf, K, G).

    In the union's coordinate u, panel j's proxy k sits at
    u_{j,k} = (2j + 1 - G + tau_k)/G, with tau_k the K_leaf points of
    _panel_operators, and row j K_leaf + k of the matrix holds l_k'(u_{j,k})
    for the K Chebyshev points of the union (_cardinal_values). It is the
    anterpolation of _panel_operators one level up, the upward pass of the
    fast multipole method, and exact in real arithmetic for polynomials of
    degree <= M.
    """
    tau = _chebyshev_points(n_leaf)
    u = ((2.0 * np.arange(group) + (1 - group))[:, None] + tau) / group
    merge = _cardinal_values(n_coeffs, u.reshape(-1))
    merge.flags.writeable = False
    return merge


def _proxy_weights(left: np.ndarray, right: np.ndarray, lam: np.ndarray,
                   mirror: np.ndarray, scratch: np.ndarray, nu: np.ndarray):
    """The proxy weights of P panels wholly left of the grid's middle: row q
    of `left` (P x w) holds a panel's samples y_k and row q of `right` their
    mirror images y_{N-k}, a view of y with negative strides that is copied
    into the contiguous `mirror`. One BLAS product per side, left @ lam and
    mirror @ lam into scratch[0] and scratch[1], then nu[0] gets the weights
    of s = y_k + y_{N-k} and nu[1] those of d = y_k - y_{N-k}. Both products
    sum the same terms in the same order, so mirrored (antisymmetric)
    samples give d (s) weights of exactly zero, as a fold would."""
    np.copyto(mirror, right)
    np.matmul(left, lam, out=scratch[0])
    np.matmul(mirror, lam, out=scratch[1])
    np.add(scratch[0], scratch[1], out=nu[0])
    np.subtract(scratch[0], scratch[1], out=nu[1])


def _merge_weights(nu: np.ndarray, merge: np.ndarray, mu: np.ndarray):
    """mu[a, q] = nu[a, qG:(q+1)G] (G K_leaf weights in a row) @ merge for each
    parity a and group q, in BLAS products of at most _MERGE_ROWS groups."""
    for a in range(2):
        rows = nu[a].reshape(-1, merge.shape[0])
        for q in range(0, rows.shape[0], _MERGE_ROWS):
            np.matmul(rows[q:q + _MERGE_ROWS], merge, out=mu[a, q:q + _MERGE_ROWS])


def _proxies(nu: np.ndarray, lo: int, width: int, n: int, tau: np.ndarray):
    """The points and the even and odd weights of the proxies of consecutive
    spans of `width` points from point lo on, as _parity_sums takes them:
    span j's len(tau) proxies sit at c_j + (width/N) tau, with
    c_j = (2 lo + (2j + 1) width - 1)/N - 1, and the weights nu[0, j] and
    nu[1, j]."""
    j = np.arange(nu.shape[1])
    z = ((2 * lo + (2 * j + 1) * width - 1)[:, None] + width * tau) / n - 1.0
    return z.reshape(-1), nu[0].reshape(-1), nu[1].reshape(-1)


def _fold(y: np.ndarray, lo: int, s: np.ndarray, d: np.ndarray):
    """Write s_k = y_k + y_{N-k} and d_k = y_k - y_{N-k} into s and d for the
    len(s) points k = lo, lo+1, ... of the folded half k <= N/2. The middle
    point of an even N goes into s only."""
    n = y.size - 1
    hi = lo + s.size
    y_mirror = y[::-1]
    np.add(y[lo:hi], y_mirror[lo:hi], out=s)
    np.subtract(y[lo:hi], y_mirror[lo:hi], out=d)
    if hi == n // 2 + 1 and n % 2 == 0:
        s[-1], d[-1] = y[n // 2], 0.0


def rhs(grid: Grid, samples, m_degree: int) -> np.ndarray:
    """Right-hand side T_M(x)^T y over the left half of a mirrored grid.

    Grid has checked the points to be x_k = 2k/N - 1, so
    T_m(x_{N-k}) = (-1)^m T_m(x_k). The samples fold into
    s_k = y_k + y_{N-k} and d_k = y_k - y_{N-k} for k < N/2; the middle
    point of an even N goes into s only (s = y_{N/2}, d = 0, as T_m(0) = 0
    for odd m). Even degrees take T_m(x_k) s_k and odd degrees T_m(x_k) d_k
    over the ceil((N+1)/2) folded points. Mirrored samples give odd-degree
    entries, and antisymmetric samples even-degree entries, that are
    exactly zero.

    The folded half is cut into panels of w points, x = c_p + (w/N) t_i,
    with the same local nodes t_i = (2i - (w-1))/w in every panel (w is a
    power of two, at most 2048 and at most 65536/K with K = M+1, so the t_i
    are exact). On a panel each T_m, m <= M, is a polynomial q of degree
    <= M in t, and q = sum_k q(tau_k) l_k + r over K_leaf Chebyshev points
    tau_k and their Lagrange cardinal polynomials l_k, where the remainder
    r is at most _LEAF_TAIL = 1e-17 on the panel (_leaf_size: a
    Bernstein-ellipse bound, so r = 0 at K_leaf = K = M+1, and K_leaf = 16
    at (N, M) = (4e6, 27) and (1e6, 35) and 32 at (62500, 125)). So
    sum_i s_i q(t_i) = sum_k nu_k q(tau_k) to within 1e-17 sum|s| in real
    arithmetic, with the proxy weights nu_k = sum_i s_i l_k(t_i), a row of
    samples times the fixed w x K_leaf matrix lam (_panel_operators), and
    the w points of a panel become K_leaf proxies z = c_p + (w/N) tau_k;
    the recurrence runs over the proxies only. The weights are linear in
    the samples, so s and d are never formed for a whole panel, one whose
    points all have 2k < N: a block of P such panels is one (P x w) view of
    y, its mirror images y_{N-k} in the same order a second, and
    _proxy_weights takes one BLAS product of each against lam and folds
    only the P K_leaf weights. The mirror images are copied into a
    buffer of one block, so that both products sum the same terms in the
    same order and mirrored (antisymmetric) samples keep the odd (even)
    entries of b exactly zero, as the parity of the fit needs; a product of
    the right side as it lies, against the row-reversed lam, left them at
    about 1e-18 sum|y|.

    One level up, each group of G adjacent compressed panels (_group_size:
    16 at (K_leaf, K) = (32, 126), 128 at (16, 28)) moves its G K_leaf
    proxy weights onto the K Chebyshev proxies of its span in the same way,
    with one fixed G K_leaf x K matrix (_merge_operator): the upward pass of
    the fast multipole method (Greengard and Rokhlin, 1987), exact for the
    degree-M polynomials a group carries. The fewer than G panels past the
    last whole group keep their K_leaf proxies. The cost is about N K_leaf
    multiply-adds for the panels, a copy of N/2 samples, G K_leaf K per
    group for the merge, and about M(NK/(2Gw) + 2w + G K_leaf) for the
    recurrence, which runs over 1,293 points at (N, M) = (62500, 125) and
    4,661 at (4e6, 27). A span of W = w or Gw
    points from point lo has its proxies at the grid's positions 2k/N - 1,
    each formed as ((2 lo + W - 1) + W tau_k)/N - 1 (W tau_k is exact)
    rather than as the sum of a rounded centre and (W/N) tau_k.

    Every other folded point is its own proxy: the first panel, at x = -1,
    and the fewer than w points past the last whole panel, an even N's
    middle point among them, folded once (_fold) and summed with the last
    proxy batch in one _parity_sums call. At x = -1 T_M' reaches M^2, which
    magnifies the rounding of a grid point or a proxy: compressed, the first
    panel put b 1.04e-14 sum|y| from the long-double recurrence for y = +-1
    only at |x| > 0.99 (M = 127, N = 83606), against 4.0e-15 uncompressed.

    Compression runs when at least two panels are whole and w >= 4K, so
    that it pays, and when M <= sqrt(N)/2, so that each panel is short on
    the scale of T_M's oscillation. Past that boundary a panel's local
    polynomial uses its full degree near t = +-1, where T_l(t) is most
    sensitive to rounding, and the panels lost up to 100 times more digits
    than the plain recurrence (M = 127, N = 1023). Otherwise every point is
    its own proxy and the same recurrence runs over blocks of _CHUNK points.

    Each product holds at most _PRODUCT_POINTS / w panels, whatever _CHUNK is,
    and the weights are merged and summed in batches of about _CHUNK / K_leaf
    panels, a whole number of groups (at least one, or every compressed
    panel when there are fewer than G), so that no group straddles two
    batches. So the extra space is
    O(_CHUNK + _PRODUCT_POINTS + K_leaf w + G K_leaf K), under 2 MB, besides
    the panel and merge operators, cached per (K_leaf, w) and (K_leaf, K, G).
    The products are the one use of BLAS, whose bits can depend on the
    thread count. On OpenBLAS 0.3.31 a (P x w) @ (w x K) panel product gave
    other bits under two threads than under one once P >= 33, at K = 36
    (w = 1024) and at K = 101 and 126 (w = 512). A (Q x GK) @ (GK x K)
    merge product did so once Q >= 16 groups, at K = 63, 89, 90, 126 and
    127 (about 2^20 multiply-adds), and never at Q < 16 over every
    K = 2..128 and Q <= 48; so a merge product holds at most _MERGE_ROWS = 4
    groups, a quarter of that. The shapes are fixed by w, K_leaf, G,
    _PRODUCT_POINTS and _MERGE_ROWS; K_leaf is K or a power of two, and
    non-increasing in N, so rhs can issue 68 (w, K_leaf) pairs and 390
    (K_leaf, K) pairs, and the tests pin the bits of all 880 panel and 1,560
    merge shapes they give (and of the 2,816 panel shapes at K_leaf = K)
    under each thread count they run. Every other product and reduction is numpy's own
    single-threaded einsum (or np.sum) in a fixed order, so the bits do not
    depend on the number of BLAS threads.

    Raises ValueError if the sample count differs from the grid's or if M < 0.
    """
    y = np.asarray(samples, dtype=float)
    x = grid.points
    if y.shape != x.shape:
        raise ValueError(f"got {y.size} samples for a grid of {x.size} points")
    if m_degree < 0:
        raise ValueError("degree must be nonnegative")
    n = x.size - 1
    half = n // 2 + 1
    k = m_degree + 1
    w = _panel_width(k)
    whole = (n + 1) // 2 // w  # panels whose points all have 2k < N
    if whole < 2 or w < 4 * k or n < 4 * m_degree * m_degree:
        # every point is its own proxy
        size = max(1, min(_CHUNK, half))
        s, d = np.empty((2, size))
        b = np.zeros(k)
        for lo in range(0, half, size):
            count = min(size, half - lo)
            _fold(y, lo, s[:count], d[:count])
            b += _parity_sums(x[lo:lo + count], s[:count], d[:count], m_degree)
        return b

    leaf = _leaf_size(m_degree, n, w)
    lam, tau_leaf = _panel_operators(leaf, w)
    group = _group_size(leaf, k)
    merge = _merge_operator(leaf, k, group)
    tau = _chebyshev_points(k)
    tail = whole * w
    # The points that are their own proxies, with their s and d: the first
    # panel, at x = -1, and those past the last whole panel.
    own = np.empty((3, w + half - tail))
    own[0, :w], own[0, w:] = x[:w], x[tail:half]
    _fold(y, 0, *own[1:, :w])
    _fold(y, tail, *own[1:, w:])
    rows = _PRODUCT_POINTS // w  # panels per product
    # panels per proxy sum: whole groups, so that none straddles two sums,
    # unless fewer than G panels are whole
    batch = min(whole - 1, group * max(1, min(_CHUNK // leaf, whole - 1) // group))
    mirror = np.empty((rows, w))
    scratch = np.empty((2, rows, leaf))
    nu = np.empty((2, batch, leaf))
    mu = np.empty((2, batch // group, k))
    b = np.zeros(k)
    for first in range(1, whole, batch):
        stop = min(first + batch, whole)
        for p in range(first, stop, rows):
            q = min(p + rows, stop)
            _proxy_weights(y[p * w:q * w].reshape(-1, w),
                           y[::-1][p * w:q * w].reshape(-1, w), lam, mirror[:q - p],
                           scratch[:, :q - p], nu[:, p - first:q - first])
        groups = (stop - first) // group
        merged = groups * group
        _merge_weights(nu[:, :merged], merge, mu[:, :groups])
        spans = (_proxies(mu[:, :groups], first * w, group * w, n, tau),
                 _proxies(nu[:, merged:stop - first], (first + merged) * w, w, n, tau_leaf))
        if stop < whole:
            b += _parity_sums(*map(np.concatenate, zip(*spans)), m_degree)
    # The last sum's proxies join the points that are their own proxies in
    # one recurrence.
    return b + _parity_sums(*map(np.concatenate, zip(own, *spans)), m_degree)
