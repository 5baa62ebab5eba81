"""Numeric kernels of the nonlinearity and the diagnostics, vectorized in numpy.

Each kernel has one code path and uses the integer structure of its problem:
exact integer gaps before any fractional power, a factored gap for the torus
shell sums, flattened (l, j) pairs for the gap-ratio scan and wrapped-diagonal
sums for the slice counts.  Callers look the kernels up on this module at call
time (``_accel.torus_l_sums(...)``).
"""

import math

import numpy as np

# l values per block of the gap-ratio scan: bounds the flattened (l, j) pair
# arrays to a few MB at l_max = 1e4
_GAP_BLOCK = 1024


def quasipoly_f(v, amps, exps):
    """f(s) = sum_i a_i |s|^(p_i - 2) s, evaluated elementwise."""
    out = np.zeros_like(v)
    av = np.abs(v)
    for a, p in zip(amps, exps):
        out += a * av ** (p - 2.0) * v
    return out


def quasipoly_prim(v, amps, exps):
    """Primitive F(s) = sum_i (a_i / p_i) |s|^p_i, elementwise."""
    out = np.zeros_like(v)
    av = np.abs(v)
    for a, p in zip(amps, exps):
        out += (a / p) * av ** p
    return out


def torus_l_sums(nu, m, s):
    """For each spatial Laplace eigenvalue nu, sum |nu^m - l^2|^(-s) over l.

    l runs over the integers with weight 2 for l != 0 (cos and sin branches)
    and resonant terms skipped; the sum is truncated at l_k + max(64, l_k)
    where l_k = nu^(m/2).  nu^m must be a perfect square a^2 (m even, or
    nu = k^2), so each gap factors as |a - l| * (a + l) and every term is a
    product of two entries of one power table T[x] = x^(-s), T[0] = 0; the
    zero entry drops the resonant term.
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
    out = np.empty(len(roots), dtype=np.float64)
    for i, a in enumerate(roots):
        lmax = a + max(64, a)
        near = table[a::-1] @ table[a : 2 * a + 1]  # l = 0..a
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
    fractional power is applied.
    """
    half = (N - 1) // 2
    ls = np.arange(0, l_cut + 1, dtype=np.int64)
    kl = np.maximum(ls - half, 0) if klein_gordon else _mode_shift(ls, N, m)[1]
    w = np.full(len(ls), 2.0)
    w[0] = 1.0
    out = np.empty(len(j_values), dtype=np.float64)
    for idx, j in enumerate(j_values):
        k = kl + int(j)
        valid = k >= 0
        kk = k[valid]
        lv = ls[valid]
        if klein_gordon:
            nu = (kk + half) ** 2
        else:
            nu = (kk * (kk + N - 1)) ** m
        gaps = np.abs(nu - lv * lv)
        nz = gaps > 0
        out[idx] = np.sum(
            w[valid][nz]
            * gaps[nz].astype(np.float64) ** (-s)
            * (1.0 + kk[nz].astype(np.float64)) ** wexp
        )
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
    integer root).  j* is the real offset k_l + j - k_l*; the factor 2 is the
    leading constant of the gap asymptotics (from
    j*(j* + 2 k_l* + N - 1) ~ 2 j* l^(1/m)).  The (l, j) pairs are flattened
    in blocks of l.
    """
    expo = (2.0 * m - 1.0) / m
    rmin = math.inf
    rmax = 0.0
    for start in range(2, l_max + 1, _GAP_BLOCK):
        ls = np.arange(start, min(start + _GAP_BLOCK, l_max + 1), dtype=np.int64)
        k_star, kl = _mode_shift(ls, N, m)
        denom = 2.0 * ls.astype(np.float64) ** expo
        jmax = _int_root(ls, m)
        # pair p of row i takes j = -jmax..-1, 1..jmax in order
        row = np.repeat(np.arange(len(ls)), 2 * jmax)
        pos = np.arange(len(row)) - np.repeat(np.cumsum(2 * jmax) - 2 * jmax, 2 * jmax)
        j = pos - jmax[row]
        j += j >= 0
        k = kl[row] + j
        keep = k >= 0
        row, k = row[keep], k[keep]  # never empty: j = 1 gives k >= 1
        nu = (k * (k + N - 1)) ** m
        gaps = np.abs(nu - ls[row] * ls[row]).astype(np.float64)
        jstar = np.abs(k.astype(np.float64) - k_star[row])
        ratios = gaps / (denom[row] * jstar)
        rmin = min(rmin, float(ratios.min()))
        rmax = max(rmax, float(ratios.max()))
    return rmin, rmax


def _wrapped_diagonal_sums(mask):
    """out[off] = sum_ix mask[ix, (ix - off) % r], exact in int64.

    Row ix of a stride view of [mask | mask] starts at column ix, so its
    column sums are the wrapped-diagonal sums at offsets (r - c) % r.
    """
    r = mask.shape[0]
    doubled = np.concatenate([mask, mask], axis=1)
    step_row, step_col = doubled.strides
    diag = np.lib.stride_tricks.as_strided(
        doubled, shape=(r, r), strides=(step_row + step_col, step_col), writeable=False
    )
    sums = diag.sum(axis=0, dtype=np.int64)
    return sums[(-np.arange(r)) % r]


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
