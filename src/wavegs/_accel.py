"""Numeric kernels of the nonlinearity and the diagnostics, vectorized in numpy.

Each kernel has one code path and uses the integer structure of its problem:
exact integer gaps before any fractional power, a factored gap read forward
from one power table for the torus shell sums, per-degree tables and suffixes
of l for the sphere sums, two offsets per l over blocks of l for the gap-ratio
scan (the ratio is monotone in the degree) and wrapped-diagonal sums of a
row-blocked doubled raster for the slice counts.  The nonlinearity takes one
power per term and shares it between F and f.  Callers look the kernels up on
this module at call time (``_accel.torus_l_sums(...)``).
"""

import math

import numpy as np

# raster rows per doubled block of the slice counts: 1 MB of uint8 at R = 2048
_ROW_BLOCK = 256
# values of l per block of the gap-ratio scan: about 7 MB of temporaries
_L_BLOCK = 1 << 16


def quasipoly(v, terms):
    """(F(s), f(s)) elementwise for the terms (a_i, p_i): F = sum_i (a_i / p_i) |s|^p_i
    and its derivative f = sum_i a_i |s|^(p_i - 2) s, from one power |s|^(p_i - 2) per term."""
    av = np.abs(v)
    F = f = None
    for a, p in terms:
        rs = np.power(av, p - 2.0)
        rs *= v  # |s|^(p - 2) s
        Fi = rs * v
        Fi *= a / p
        rs *= a
        if f is None:
            F, f = Fi, rs
        else:
            F += Fi
            f += rs
    return F, f


def quasipoly_f(v, terms):
    """f(s) = sum_i a_i |s|^(p_i - 2) s, evaluated elementwise (``quasipoly``'s f)."""
    return quasipoly(v, terms)[1]


def quasipoly_prim(v, terms):
    """Primitive F(s) = sum_i (a_i / p_i) |s|^p_i, elementwise (``quasipoly``'s F)."""
    return quasipoly(v, terms)[0]


def torus_l_sums(nu, m, s):
    """For each spatial Laplace eigenvalue nu, sum |nu^m - l^2|^(-s) over l.

    l runs over the integers with weight 2 for l != 0 (cos and sin branches)
    and resonant terms skipped; the sum is truncated at l_k + max(64, l_k)
    where l_k = nu^(m/2).  nu^m must be a perfect square a^2 (m even, or
    nu = k^2), so each gap factors as |a - l| * (a + l) and every term is a
    product of two entries of one power table T[x] = x^(-s), T[0] = 0; the
    zero entry drops the resonant term.  The near sum runs l = 0..a down the
    table, so it reads a reversed copy forward (a forward dot is the fast one).
    """
    roots = []
    for nv in np.asarray(nu).tolist():
        lam0 = int(nv) ** m
        a = math.isqrt(lam0)
        if a * a != lam0:
            raise ValueError(f"nu^m = {lam0} is not a perfect square")
        roots.append(a)
    top = max(roots, default=0)
    table = np.zeros(2 * top + max(64, top) + 1)
    table[1:] = np.arange(1, len(table), dtype=np.float64) ** (-s)
    rev = table[::-1].copy()  # rev[n - 1 - x] = T[x]
    out = np.empty(len(roots), dtype=np.float64)
    for i, a in enumerate(roots):
        lmax = a + max(64, a)
        near = rev[len(table) - 1 - a :] @ table[a : 2 * a + 1]  # l = 0..a
        far = table[1 : lmax - a + 1] @ table[2 * a + 1 : a + lmax + 1]  # l = a+1..lmax
        out[i] = 2.0 * (near + far) - table[a] * table[a]
    return out


def _mode_shift(ls, N, m):
    """(k_l*, k_l) for frequencies ls on S^N: real resonance degrees, int64 roundings."""
    c = 0.5 * (N - 1)
    x = ls.astype(np.float64)
    if m != 2:
        x = x ** (2.0 / m)
    k_star = -c + np.sqrt(x + c * c)
    return k_star, np.floor(k_star + 0.5).astype(np.int64)


def sphere_series_inner(j_values, N, m, s, wexp, l_cut, klein_gordon):
    """Inner l-sums of the sphere embedding series, one value per offset j.

    Gaps |nu_{k_l+j} - l^2| are formed in exact integer arithmetic before the
    fractional power is applied; a resonant (zero) gap is read as infinite, so
    its term is 0.  nu_k and (1 + k)^wexp are tables over
    k = 0..k_l(l_cut) + max(j), and since k_l is nondecreasing in l, the l with
    k_l + j >= 0 are a suffix of 0..l_cut.
    """
    half = (N - 1) // 2
    ls = np.arange(0, l_cut + 1, dtype=np.int64)
    kl = np.maximum(ls - half, 0) if klein_gordon else _mode_shift(ls, N, m)[1]
    w = np.full(len(ls), 2.0)
    w[0] = 1.0
    ks = np.arange(kl[-1] + np.max(j_values, initial=0) + 1, dtype=np.int64)
    nu = (ks + half) ** 2 if klein_gordon else (ks * (ks + N - 1)) ** m
    growth = (1.0 + ks.astype(np.float64)) ** wexp
    out = np.empty(len(j_values), dtype=np.float64)
    for idx, j in enumerate(j_values):
        first = np.searchsorted(kl, -j)  # the first l with k_l + j >= 0
        k = kl[first:] + j
        gaps = np.abs(nu[k] - ls[first:] ** 2).astype(np.float64)
        gaps[gaps == 0] = np.inf
        out[idx] = np.sum(w[first:] * gaps ** (-s) * growth[k])
    return out


def _int_root(ls, m):
    """Exact floor(l^(1/m)) for positive int64 ls."""
    r = np.floor(ls.astype(np.float64) ** (1.0 / m)).astype(np.int64)
    r += (r + 1) ** m <= ls
    r -= r**m > ls
    return r


def gap_ratio_scan(N, m, l_max):
    """Extremes of |nu_{k_l+j} - l^2| / (2 l^((2m-1)/m) |j*|) over the sampled range.

    The range is 2 <= l <= l_max and 1 <= |j| <= floor(l^(1/m)) (the exact
    integer root), with k = k_l + j >= 0.  j* is the real offset k - k_l*; the
    factor 2 is the leading constant of the gap asymptotics (from
    j*(j* + 2 k_l* + N - 1) ~ 2 j* l^(1/m)).

    Only two offsets per l are read.  With X = k(k + N - 1) and
    Y = l^(2/m) = k*(k* + N - 1), nu_k - l^2 = X^m - Y^m and
    X - Y = (k - k*)(k + k* + N - 1), so the ratio is
    (sum_{i<m} X^i Y^(m-1-i)) (k + k* + N - 1) / (2 l^((2m-1)/m)), strictly
    increasing in k >= 0.  Per l the minimum is at the smallest k in range,
    max(k_l - jmax, 0) if k_l > 0 and else 1 (j = 0 is excluded), and the
    maximum at k_l + jmax.  The extremes are those of the every-pair scan to
    the bit (the tests keep that scan).  The scan runs over blocks of
    ``_L_BLOCK`` values of l, so its memory does not grow with l_max.
    """
    lo, hi = math.inf, 0.0
    for first in range(2, l_max + 1, _L_BLOCK):
        ls = np.arange(first, min(first + _L_BLOCK, l_max + 1), dtype=np.int64)
        k_star, kl = _mode_shift(ls, N, m)
        jmax = _int_root(ls, m)
        k = np.stack([np.where(kl > 0, np.maximum(kl - jmax, 0), 1), kl + jmax])
        gaps = np.abs((k * (k + N - 1)) ** m - ls * ls).astype(np.float64)
        denom = 2.0 * ls.astype(np.float64) ** ((2.0 * m - 1.0) / m)
        ratios = gaps / (denom * np.abs(k - k_star))
        lo, hi = min(lo, float(ratios[0].min())), max(hi, float(ratios[1].max()))
    return lo, hi


def _wrapped_diagonal_sums(mask):
    """out[off] = sum_ix mask[ix, (ix - off) % r], exact in int64.

    Row ix of a stride view of [mask | mask] starts at column ix, so its
    column sums are the wrapped-diagonal sums at offsets (r - c) % r.  The
    doubled rows are built and summed a block of rows at a time, in one buffer.
    """
    r = mask.shape[0]
    doubled = np.empty((min(r, _ROW_BLOCK), 2 * r), dtype=mask.dtype)
    step_row, step_col = doubled.strides
    sums = np.zeros(r, dtype=np.uint32)
    for top in range(0, r, len(doubled)):
        rows = mask[top : top + len(doubled)]
        doubled[: len(rows), :r] = rows
        doubled[: len(rows), r:] = rows
        diag = np.lib.stride_tricks.as_strided(  # row i starts at column top + i
            doubled[:, top:], (len(rows), r), (step_row + step_col, step_col), writeable=False)
        sums += diag.sum(axis=0, dtype=np.uint32)
    return sums[(-np.arange(r)) % r].astype(np.int64)


def char_slice_counts(mask):
    """Per-offset cell counts of characteristic slices through a raster mask.

    ``mask`` is the (R, R) occupancy of the set on [0, 2pi)^2.  Slices run
    through the time-doubled set; the doubled lookup reduces to an index
    shift mod R (see control.xi_eta_infimum), so

        a[off] = sum_ix mask[ix, (off - ix - 1) % R]
        b[off] = sum_ix mask[ix, (ix - off) % R]

    b is a wrapped-diagonal sum and a the same sum over the column-reversed
    mask.
    """
    mask = np.asarray(mask)
    return _wrapped_diagonal_sums(mask[:, ::-1]), _wrapped_diagonal_sums(mask)
