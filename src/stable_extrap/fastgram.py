"""Fast assembly of the equispaced Chebyshev normal equations.

By T_m T_n = (T_{m+n} + T_{|m-n|})/2, each Gram entry sum_i T_m(x_i) T_n(x_i)
is (sigma_{m+n} + sigma_{|m-n|})/2, where sigma_k = sum_i T_k(x_i) is one
trapezium sum on the equispaced grid; sigma_k = 0 for odd k by the grid's
mirror symmetry. So the (M+1) x (M+1) matrix is Toeplitz plus Hankel in the
M+1 numbers h_j = sigma_{2j}/2, and each h_j is the integral of T_{2j} plus
an endpoint term plus a correction series with weighted-Bernoulli
coefficients: O(M) numbers and O(M^2) assembly, independent of N.

The right-hand side b_m = sum_k y_k T_m(x_k) is the one O(MN) step. The
grid is a union of translates of one set of local nodes, so rhs replaces
each panel of w points by its moments against the fixed matrix T_l(t_i)
(the anterpolation step of fast multipole and NUFFT-type methods), which is
exact for the degree-M polynomials a panel carries: one einsum contraction
per block of panels, about NK/2 multiply-adds with K = M+1, and the
three-term recurrence over only K proxies per panel.
"""

from __future__ import annotations

import numpy as np

from .basis import Basis, Grid, _recurrence

_CHUNK = 16384  # rhs's block size: folded points, and proxies per batch
# rhs panels: at most this many points, and the panel matrix T_l(t_i) at
# most this many entries (512 KB).
_PANEL_MAX = 2048
_PANEL_ENTRIES = 65536

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
    order at (m, n) and (n, m), so G is exactly symmetric."""
    idx = np.arange(h.size)
    t = idx[:, None] + idx[None, :]
    g = h[t // 2] + h[np.abs(idx[:, None] - idx[None, :]) // 2]
    g[t % 2 == 1] = 0.0
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


def _panel_operators(n_coeffs: int, width: int):
    """The fixed matrices of a panel of `width` points and K = M+1 proxies.

    Returns (local, to_nodes, tau). local[a, j, i] is T_{2j+a}(t_{w/2+i}),
    the even (a = 0) and odd (a = 1) degrees at the right half of the local
    nodes t_i = (2i - (w-1))/w. to_nodes[a, j, k] is
    (c/K) T_{2j+a}(tau_k), c = 1 for degree 0 and 2 otherwise, at the K
    Chebyshev points tau_k = cos((k+1/2)pi/K). Rows past degree M are zero.
    """
    k, h = n_coeffs, width // 2
    theta = (np.arange(k) + 0.5) * np.pi / k
    tau = np.cos(theta)
    t = (2.0 * np.arange(h, width) - (width - 1)) / width  # exact in binary
    rows = (k + 1) // 2
    local = np.zeros((2, rows, h))
    for m, t_m in enumerate(_recurrence(Basis.CHEBYSHEV, t, k - 1)):
        local[m % 2, m // 2] = t_m
    scale = np.full(k, 2.0 / k)
    scale[0] = 1.0 / k
    cheb_at_nodes = scale[:, None] * np.cos(np.arange(k)[:, None] * theta)
    to_nodes = np.zeros((2, rows, k))
    to_nodes[0] = cheb_at_nodes[0::2]
    to_nodes[1, :k // 2] = cheb_at_nodes[1::2]
    return local, to_nodes, tau


def _proxy_sums(nu: np.ndarray, first: int, width: int, n: int, tau: np.ndarray,
                m_degree: int) -> np.ndarray:
    """_parity_sums over the proxies of panels first, first+1, ...: panel p's
    K proxies sit at c_p + (w/N) tau, c_p = (2pw + w - 1)/N - 1, with the
    even and odd weights nu[0, p - first] and nu[1, p - first]."""
    p = first + np.arange(nu.shape[1])
    z = ((2.0 * width * p + (width - 1))[:, None] + width * tau) / n - 1.0
    return _parity_sums(z.reshape(-1), nu[0].reshape(-1), nu[1].reshape(-1),
                        m_degree)


def _folded_blocks(y: np.ndarray, s: np.ndarray, d: np.ndarray):
    """For each block of up to s.size points of the left half, from k = lo,
    write s_k = y_k + y_{N-k} and d_k = y_k - y_{N-k} into s and d and yield
    (lo, point count). The middle point of an even N goes into s only."""
    n = y.size - 1
    half = n // 2 + 1
    y_mirror = y[::-1]
    width = s.size
    for lo in range(0, half, width):
        hi = min(lo + width, half)
        sb, db = s[:hi - lo], d[:hi - lo]
        np.add(y[lo:hi], y_mirror[lo:hi], out=sb)
        np.subtract(y[lo:hi], y_mirror[lo:hi], out=db)
        if hi == half and n % 2 == 0:
            sb[-1], db[-1] = y[n // 2], 0.0
        yield lo, hi - lo


def rhs(grid: Grid, samples, m_degree: int) -> np.ndarray:
    """Right-hand side T_M(x)^T y over the left half of a mirrored grid.

    Grid has checked the points to be x_k = 2k/N - 1, so
    T_m(x_{N-k}) = (-1)^m T_m(x_k). The samples are folded into
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
    <= M in t, and sum_i s_i q(t_i) = sum_k nu_k q(tau_k) exactly in real
    arithmetic. Here tau_k are the K Chebyshev points, mu_l = sum_i s_i
    T_l(t_i) are the panel's moments and nu = mu diag(1/K, 2/K, ..., 2/K)
    T(tau)^T, by the discrete orthogonality of T_0..T_M on the tau_k. So the
    w points of a panel become K proxies z = c_p + (w/N) tau_k with weights
    nu, and the recurrence runs over the proxies only. The moments of a
    block of panels are one einsum against the fixed K x w matrix T_l(t_i),
    halved by the symmetry t_{w-1-i} = -t_i. The cost is about NK/2
    multiply-adds there, P K^2 for nu and P K M for the recurrence over the
    PK proxies of P panels. The last panel is zero-padded and, because of
    the fold, stays inside [-1, 1]. The proxies sit at the grid's positions
    2k/N - 1, each formed as ((2pw + w - 1) + w tau_k)/N - 1 (w tau_k is
    exact) rather than as the sum of the rounded c_p and (w/N) tau_k.

    The first panel, at x = -1, is not compressed: its points go through the
    recurrence themselves. There T_M' reaches M^2, so the half ulp by which a
    grid point differs from 2k/N - 1, where a panel's polynomial is exact,
    and the rounding of a proxy cost up to M^2 times their size; compressed,
    that panel put b 1.04e-14 sum|y| from the long-double recurrence for
    y = +-1 only at |x| > 0.99 (M = 127, N = 83606), against 4.0e-15 now.

    Compression runs when half >= w and w >= 4K, so that it pays, and when
    M <= sqrt(N)/2, so that each panel is short on the scale of T_M's
    oscillation. Past
    that boundary a panel's local polynomial uses its full degree near
    t = +-1, where T_l(t) is most sensitive to rounding, and the panels lost
    up to 100 times more digits than the plain recurrence (M = 127,
    N = 1023). Otherwise every point is its own proxy and the same
    recurrence runs over the points themselves.

    Blocks hold max(1, _CHUNK // w) panels, or _CHUNK points when nothing is
    compressed, and the proxies are summed in batches of about _CHUNK, so
    the extra space is O(_CHUNK + Kw), about 2 MB. Every product and
    reduction is numpy's own single-threaded einsum (or np.sum) in a fixed
    order, never a BLAS kernel, which can split work across threads; the
    bits therefore do not depend on the number of BLAS threads.

    Raises ValueError if the sample count differs from the grid's or if
    M < 0.
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
    if half < w or w < 4 * k or n < 4 * m_degree * m_degree:
        w = 1  # every point is its own proxy
    total = -(-half // w)  # panels, the last one zero-padded
    panels = max(1, min(_CHUNK // w, total))
    sd = np.empty((2, panels, w))
    s, d = sd[0].reshape(-1), sd[1].reshape(-1)
    b = np.zeros(k)
    if w == 1:
        for lo, count in _folded_blocks(y, s, d):
            b += _parity_sums(x[lo:lo + count], s[:count], d[:count], m_degree)
        return b

    local, to_nodes, tau = _panel_operators(k, w)
    h = w // 2
    folded = np.empty((2, 2, panels, h))
    moments = np.empty((2, 2, panels, local.shape[1]))
    batch = max(panels, min(_CHUNK // k, total))  # panels per proxy sum
    nu = np.empty((2, batch, k))
    first = filled = 0  # nu[:, :filled] holds panels first, first+1, ...
    for lo, count in _folded_blocks(y, s, d):
        p = -(-count // w)
        s[count:p * w] = 0.0
        d[count:p * w] = 0.0
        if lo == 0:  # the first panel, at x = -1, is not compressed
            b += _parity_sums(x[:w], s[:w], d[:w], m_degree)
            s[:w] = 0.0
            d[:w] = 0.0
        if filled + p > batch:
            b += _proxy_sums(nu[:, :filled], first, w, n, tau, m_degree)
            first, filled = first + filled, 0
        block = sd[:, :p]
        np.add(block[..., h:], block[..., h - 1::-1], out=folded[0, :, :p])
        np.subtract(block[..., h:], block[..., h - 1::-1], out=folded[1, :, :p])
        np.einsum("aqpi,ali->aqpl", folded[:, :, :p], local,
                  out=moments[:, :, :p])
        np.einsum("aqpl,alk->qpk", moments[:, :, :p], to_nodes,
                  out=nu[:, filled:filled + p])
        filled += p
    return b + _proxy_sums(nu[:, :filled], first, w, n, tau, m_degree)
