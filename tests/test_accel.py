"""Each vectorized kernel path must agree with an independent scalar reference.

The references are direct Python loops in exact integer arithmetic (gaps,
integer roots, index shifts), written from the kernels' definitions; the
two-offset gap-ratio scan is also held, to the bit, to a scan over every
(l, j) pair, and the kernel Gram is checked against the dense basis-row
product.
"""

import math
import tracemalloc

import numpy as np
import pytest

from wavegs import (
    DomainSpec,
    OperatorSpec,
    ProductGrid,
    WeightField,
    _accel,
    build_catalog,
    kernel_gram,
    weight_rectangle,
)
from wavegs.fields import basis_rows


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(99)


def test_quasipoly_paths_agree(rng):
    # the shared kernel and its two halves, on exact zeros and both signs
    v = np.concatenate((rng.standard_normal(4096), [0.0, -0.0, -2.5, 2.5, -1.0, 1.0]))
    for terms in [((1.0, 3.0),), ((1.0, 3.5),), ((1.0, 4.0),), ((1.0, 5.0),), ((1.0, 6.0),),
                  ((1.0, 3.0), (0.5, 5.0)), ((1.0, 3.0), (0.4, 4.5))]:
        f_ref = [sum(a * abs(x) ** (p - 2.0) * x for a, p in terms) for x in v]
        F_ref = [sum(a / p * abs(x) ** p for a, p in terms) for x in v]
        F, f = _accel.quasipoly(v, terms)
        for got, ref in [(F, F_ref), (f, f_ref), (_accel.quasipoly_prim(v, terms), F_ref),
                         (_accel.quasipoly_f(v, terms), f_ref)]:
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
        assert np.all(F[v == 0] == 0) and np.all(f[v == 0] == 0)
        pairs = f[-6:].reshape(3, 2)  # f is odd: (0, -0), (-2.5, 2.5), (-1, 1)
        np.testing.assert_array_equal(pairs[:, 0], -pairs[:, 1])


def _torus_l_sum_loop(nu, m, s):
    lam0 = nu**m
    lk = math.isqrt(lam0)
    acc = 0.0
    for l in range(lk + max(64, lk) + 1):
        gap = abs(lam0 - l * l)
        if gap:
            acc += (1.0 if l == 0 else 2.0) * float(gap) ** (-s)
    return acc


def test_torus_l_sums_paths_agree():
    # every nu is reachable for even m, only squares nu = k^2 (N = 1) for odd m;
    # nu = 0 has a resonant l = 0 term
    every = np.arange(0, 61, dtype=np.int64)
    squares = np.arange(0, 12, dtype=np.int64) ** 2
    for nu, m, s in [(every, 2, 2.0), (every, 2, 3.0), (every, 4, 1.5), (squares, 3, 2.0)]:
        ref = [_torus_l_sum_loop(int(v), m, s) for v in nu]
        np.testing.assert_allclose(_accel.torus_l_sums(nu, m, s), ref, rtol=1e-12)


def test_torus_l_sums_rejects_non_square():
    with pytest.raises(ValueError, match="perfect square"):
        _accel.torus_l_sums(np.array([4, 5], dtype=np.int64), 1, 2.0)
    with pytest.raises(ValueError, match="perfect square"):
        _accel.torus_l_sums(np.array([2], dtype=np.int64), 3, 2.0)


def _sphere_inner_loop(j, N, m, s, wexp, l_cut, klein_gordon):
    half, c = (N - 1) // 2, 0.5 * (N - 1)
    acc = 0.0
    for l in range(l_cut + 1):
        # k_l rounds the real root k* of k (k + N - 1) = l^(2/m)
        kl = max(l - half, 0) if klein_gordon else math.floor(
            -c + math.sqrt(l ** (2.0 / m) + c * c) + 0.5)
        k = kl + j
        if k < 0:
            continue
        nu = (k + half) ** 2 if klein_gordon else (k * (k + N - 1)) ** m
        gap = abs(nu - l * l)
        if gap:
            acc += (1.0 if l == 0 else 2.0) * float(gap) ** (-s) * (1.0 + k) ** wexp
    return acc


def test_sphere_series_paths_agree():
    # from j = -400 every k_l + j at l_cut = 300 is negative and the sum is 0
    js = np.concatenate([np.arange(-400, -394), np.arange(-6, 7)]).astype(np.int64)
    for N, m, kg in [(3, 2, False), (2, 4, False), (1, 3, False), (3, 1, True), (5, 1, True)]:
        got = _accel.sphere_series_inner(js, N, m, 3.0, 1.0, 300, kg)
        ref = [_sphere_inner_loop(int(j), N, m, 3.0, 1.0, 300, kg) for j in js]
        assert ref[0] == 0.0
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def _int_root(l, m):
    r = round(l ** (1.0 / m))
    while r**m > l:
        r -= 1
    while (r + 1) ** m <= l:
        r += 1
    return r


def _gap_ratio_loop(N, m, l_max):
    expo = (2.0 * m - 1.0) / m
    c = 0.5 * (N - 1)
    ratios = []
    for l in range(2, l_max + 1):
        k_star = -c + math.sqrt((float(l) if m == 2 else float(l) ** (2.0 / m)) + c * c)
        kl = math.floor(k_star + 0.5)
        jmax = _int_root(l, m)
        for j in range(-jmax, jmax + 1):
            k = kl + j
            if j == 0 or k < 0:
                continue
            gap = abs((k * (k + N - 1)) ** m - l * l)
            ratios.append(gap / (2.0 * float(l) ** expo * abs(k - k_star)))
    return min(ratios), max(ratios)


def _gap_ratio_scan_exhaustive(N, m, l_max):
    """Every (l, j) pair of the scan range, flattened in blocks of l."""
    expo = (2.0 * m - 1.0) / m
    rmin, rmax = math.inf, 0.0
    for start in range(2, l_max + 1, 1024):
        ls = np.arange(start, min(start + 1024, l_max + 1), dtype=np.int64)
        k_star, kl = _accel._mode_shift(ls, N, m)
        denom = 2.0 * ls.astype(np.float64) ** expo
        jmax = _accel._int_root(ls, m)
        # pair p of row i takes j = -jmax..-1, 1..jmax in order
        row = np.repeat(np.arange(len(ls)), 2 * jmax)
        pos = np.arange(len(row)) - np.repeat(np.cumsum(2 * jmax) - 2 * jmax, 2 * jmax)
        j = pos - jmax[row]
        j += j >= 0
        k = kl[row] + j
        keep = k >= 0
        row, k = row[keep], k[keep]
        gaps = np.abs((k * (k + N - 1)) ** m - ls[row] * ls[row]).astype(np.float64)
        ratios = gaps / (denom[row] * np.abs(k.astype(np.float64) - k_star[row]))
        rmin, rmax = min(rmin, float(ratios.min())), max(rmax, float(ratios.max()))
    return rmin, rmax


@pytest.mark.parametrize("N, m, l_max", [
    (2, 2, 10000), (2, 2, 3000), (3, 2, 2000), (1, 2, 5000), (4, 4, 3000), (2, 4, 2000),
    (3, 6, 1500), (1, 3, 1400),
    (5, 2, 777),  # k_l = 0 at small l: the smallest k in range is 1
    (1, 1, 500),
])
def test_gap_ratio_two_offsets_match_every_pair(N, m, l_max, monkeypatch):
    # the ratio is monotone in k, so the extremes over every pair sit at the two end offsets
    expect = _gap_ratio_scan_exhaustive(N, m, l_max)
    assert _accel.gap_ratio_scan(N, m, l_max) == expect
    monkeypatch.setattr(_accel, "_L_BLOCK", 97)  # many blocks, one of them partial
    assert _accel.gap_ratio_scan(N, m, l_max) == expect


@pytest.mark.parametrize("l_max", [0, 1])
def test_gap_ratio_empty_range(l_max):
    assert _accel.gap_ratio_scan(2, 2, l_max) == (math.inf, 0.0)


@pytest.mark.parametrize("l_max, extremes", [
    (10_000, (0.5025062499609381, 9.842329219213246)),  # one block of l
    (1_000_000, (0.500250062499996, 9.842329219213246)),
])
def test_gap_ratio_scan_runs_in_blocks_of_l(l_max, extremes):
    # extremes recorded from the scan over the whole l range at once, which
    # peaked at 104 MB at l_max = 1e6; per-block extremes combine exactly
    tracemalloc.start()
    try:
        got = _accel.gap_ratio_scan(2, 2, l_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == extremes
    assert peak < 16e6


def test_gap_ratio_paths_agree():
    # l_max = 1400 passes the cubes 8, ..., 1331, where the float cube root falls short
    for N, m, l_max in [(2, 2, 3000), (3, 2, 1500), (1, 2, 1500), (2, 4, 3000), (1, 3, 1400)]:
        got = _accel.gap_ratio_scan(N, m, l_max)
        assert got == pytest.approx(_gap_ratio_loop(N, m, l_max), rel=1e-13)
    # the range of |j| is the exact integer root, also where float roots of
    # perfect powers round down
    ls = np.arange(1, 200_000, dtype=np.int64)
    for m in (2, 3, 4):
        roots = _accel._int_root(ls, m)
        assert np.all(roots**m <= ls) and np.all((roots + 1) ** m > ls)


def test_slice_counts_paths_agree(rng):
    # 257 and 300 end on a partial block of rows
    for r in (64, 65, 97, 128, 257, 300):
        mask = (rng.uniform(size=(r, r)) < 0.3).astype(np.uint8)
        a_ref = np.zeros(r, dtype=np.int64)
        b_ref = np.zeros(r, dtype=np.int64)
        for off in range(r):
            for ix in range(r):
                a_ref[off] += mask[ix, (off - ix - 1) % r]
                b_ref[off] += mask[ix, (ix - off) % r]
        a, b = _accel.char_slice_counts(mask)
        assert a.dtype == np.int64 and b.dtype == np.int64
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(b, b_ref)


def test_slice_counts_peak_memory_at_the_diagnostics_size():
    # the 2048 raster of the diagnostics batch (4.2 MB): rows are doubled a block at a
    # time, never the whole [mask | mask]
    mask = np.ones((2048, 2048), dtype=np.uint8)
    tracemalloc.start()
    try:
        _accel.char_slice_counts(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize(
    "dim, power, k_max, l_max, shape",
    # (1, 11, 13): odd sizes below 4K + 1, where the DFT of q aliases as the node sum does
    [(1, 1, 12, 12, None), (2, 2, 4, 16, (12, 64)), (3, 2, 2, 2, None), (1, 2, 4, 4, (11, 13))],
)
def test_kernel_gram_matches_dense_rows(dim, power, k_max, l_max, shape):
    domain = DomainSpec.circle() if dim == 1 else DomainSpec.torus(dim)
    cat = build_catalog(domain, OperatorSpec.laplacian_power(power), k_max, l_max)
    grid = ProductGrid(dim, *shape) if shape else ProductGrid.for_catalog(cat)
    rows = basis_rows(cat, grid, cat.zero_idx)
    # a rectangle and a random nonnegative weight that vanishes on a random set, as a
    # grid_file weight may
    rng = np.random.default_rng(dim)
    for q in (weight_rectangle(grid, (0.5, 2.5), (0.5, 2.5), smoothing=0.2),
              WeightField(grid, np.maximum(rng.standard_normal(grid.n_points), 0.0))):
        dense = (rows * (q.values * grid.quad_weight)) @ rows.T
        rep = kernel_gram(q, cat, grid)
        assert rep.dim == len(cat.zero_idx) > 0
        np.testing.assert_allclose(rep.gram, dense, rtol=0, atol=1e-13)
    unit = kernel_gram(WeightField.constant(grid), cat, grid)
    np.testing.assert_allclose(unit.gram, np.eye(rep.dim), rtol=0, atol=1e-13)


def test_kernel_gram_peak_memory_at_the_diagnostics_size():
    # circle classical wave at K = L = 48: a 193 x 193 Gram (0.3 MB); the DFT window
    # and a few dim x dim transients stay well under 4 MB
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 48, 48)
    grid = ProductGrid.for_catalog(cat)
    q = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
    kernel_gram(q, cat, grid)  # loads numpy.fft outside the measurement
    tracemalloc.start()
    try:
        kernel_gram(q, cat, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
