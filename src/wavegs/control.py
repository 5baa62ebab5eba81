"""Kernel control diagnostics: q-weighted Gram spectra and 1+1 wave machinery.

The control inequality  integral |u|^2 <= C integral q |u|^2  over the
truncated kernel is checked through the Gram matrix of the q-weighted form in
the orthonormal kernel basis: its smallest eigenvalue mu_min gives the
truncated constant C = 1/mu_min.  For the classical wave on the square
cylinder the kernel splits into traveling profiles phi(x+t) + psi(x-t);
characteristic slice measures of a raster set feed the sufficient condition
for a positive continuum constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel
from .catalog import TORUS, SpectralCatalog
from .fields import (TWO_PI, ProductGrid, SpectralField, WeightField, _smooth_indicator, arc,
                     mode_factors)
from .fields import basis_rows  # noqa: F401  (re-exported as control.basis_rows)

REL_FLOOR = 1e-8  # Gram eigenvalues at most this times the largest are below the floor
OFF_KERNEL_TOL = 1e-12  # the largest off-kernel coefficient dalembert_split reads as zero


@dataclass
class GramReport:
    """Spectrum of the q-weighted Gram matrix on the truncated kernel."""

    dim: int
    gram: np.ndarray
    eig_min: float
    eig_max: float
    constant: float
    below_floor: list
    floor: float

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal eigenvectors above the floor, as columns: the kernel block the inner
        ascent keeps.  Taken on first read, so a report kept for its spectrum holds none."""
        return np.linalg.eigh(self.gram)[1][:, len(self.below_floor):]

    def to_json(self):
        return {
            "kernel_dim": self.dim,
            "eig_min": self.eig_min,
            "eig_max": self.eig_max,
            "constant": self.constant,
            "below_floor": list(self.below_floor),
            "floor": self.floor,
            "gram": self.gram.tolist(),
        }


def kernel_gram(q: WeightField, catalog: SpectralCatalog,
                grid: ProductGrid | None = None) -> GramReport:
    """Assemble G_ab = integral q phi_a phi_b over the kernel basis and eigensolve.

    An empty kernel reports dim 0 with constant 0 by convention.  A
    near-singular Gram is a report state (directions below the floor listed,
    the leading eigenvalues), never an error.
    """
    grid = grid or q.grid
    if q.grid != grid:
        raise ValueError("weight grid mismatch")
    dim = catalog.kernel_dim()
    if dim == 0:
        return GramReport(0, np.zeros((0, 0)), 0.0, 0.0, 0.0, [], REL_FLOOR)
    # G = sum over the nodes of one factor of (f f^T) * (H diag(w) H^T), with
    # f, H the space/time mode factors, so no modes x points table is formed;
    # the loop runs over the factor with fewer nodes
    space, time = mode_factors(catalog, grid, catalog.zero_idx)
    weights = (q.values * grid.quad_weight).reshape(space.shape[1], time.shape[1])
    outer, inner = space, time
    if space.shape[1] > time.shape[1]:
        outer, inner, weights = time, space, weights.T
    gram = np.zeros((dim, dim))
    for f, w in zip(outer.T, weights):
        gram += np.outer(f, f) * ((inner * w) @ inner.T)
    gram = 0.5 * (gram + gram.T)
    eigvals = np.linalg.eigh(gram)[0]  # as ``basis`` takes them; eigvalsh differs in the last bits
    eig_min = float(eigvals[0])
    eig_max = float(eigvals[-1])
    constant = 1.0 / eig_min if eig_min > 0 else math.inf
    floor_value = REL_FLOOR * max(eig_max, 0.0)
    below = [int(i) for i in np.flatnonzero(eigvals <= floor_value)]
    return GramReport(dim, gram, eig_min, eig_max, constant, below, REL_FLOOR)


@dataclass
class CircleProfile:
    """Trig polynomial c0 + sum_k (cos_k cos(ks) + sin_k sin(ks)) on the circle."""

    const: float
    cos: np.ndarray
    sin: np.ndarray

    def __call__(self, s):
        # real part of sum_k (cos_k - i sin_k) z^k by Horner in z = e^{is}:
        # one exp per point instead of a cos and a sin per point and k
        z = np.exp(1j * np.asarray(s, dtype=np.float64))
        acc = np.zeros(z.shape, dtype=complex)
        for c in (self.cos - 1j * self.sin)[::-1]:
            acc = (acc + c) * z
        return self.const + acc.real


def dalembert_split(u: SpectralField):
    """Split a kernel field of the classical 1+1 wave into phi(x+t) + psi(x-t).

    The constant mode is shared evenly between the two profiles; the split is
    linear and exact on the truncated basis.
    """
    cat = u.catalog
    if not (cat.domain.kind == TORUS and cat.domain.dim == 1 and cat.operator.power_degree == 1):
        raise ValueError("d'Alembert split applies to the classical wave on the circle")
    off_kernel = u.coeffs[cat.classes != 0]
    if off_kernel.size and float(np.max(np.abs(off_kernel))) > OFF_KERNEL_TOL:
        raise ValueError("input must be purely kernel-class")
    kmax = cat.k_max
    phi = CircleProfile(0.0, np.zeros(kmax), np.zeros(kmax))
    psi = CircleProfile(0.0, np.zeros(kmax), np.zeros(kmax))
    for i in cat.zero_idx:
        a = u.coeffs[i]
        if a == 0.0:
            continue
        kx, lt = int(cat.space[i, 0]), int(cat.l[i])
        k = abs(kx)
        if k == 0:
            # constant eigenfunction 1/(2pi); gauge: even split
            phi.const += a / (4.0 * math.pi)
            psi.const += a / (4.0 * math.pi)
            continue
        c = a / (2.0 * math.pi)  # 1/pi normalization, then product-to-sum 1/2
        if kx > 0 and lt > 0:  # cos cos
            phi.cos[k - 1] += c
            psi.cos[k - 1] += c
        elif kx > 0 and lt < 0:  # cos sin
            phi.sin[k - 1] += c
            psi.sin[k - 1] -= c
        elif kx < 0 and lt > 0:  # sin cos
            phi.sin[k - 1] += c
            psi.sin[k - 1] += c
        else:  # sin sin
            phi.cos[k - 1] -= c
            psi.cos[k - 1] += c
    return phi, psi


@dataclass
class RasterSet:
    """Boolean occupancy of a subset of [0, 2pi)^2 on an R x R cell raster."""

    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.ascontiguousarray(np.asarray(self.mask, dtype=np.uint8))
        if self.mask.ndim != 2 or self.mask.shape[0] != self.mask.shape[1]:
            raise ValueError("raster mask must be square")

    @property
    def resolution(self) -> int:
        return self.mask.shape[0]

    @property
    def cell_width(self) -> float:
        return TWO_PI / self.resolution

    @staticmethod
    def full(resolution: int = 256) -> "RasterSet":
        return RasterSet(np.ones((resolution, resolution), dtype=np.uint8))

    @staticmethod
    def rectangle(x_span, t_span, resolution: int = 256) -> "RasterSet":
        """The cells whose centre lies in the rectangle that ``weight_rectangle``
        reads from the same spans at smoothing 0."""
        centers = TWO_PI * (np.arange(resolution) + 0.5) / resolution
        inx = _smooth_indicator(centers, *arc("x", x_span), 0.0) > 0
        int_ = _smooth_indicator(centers, *arc("t", t_span), 0.0) > 0
        return RasterSet(np.outer(inx, int_))

    @staticmethod
    def from_weight(q: WeightField, threshold: float = 0.0, resolution: int = 256) -> "RasterSet":
        """{q > threshold} on an R x R raster: each cell centre takes the value
        at its nearest periodic grid node (ties go to the lower node, so R equal
        to the node count reads the nodes one to one)."""
        grid = q.grid
        if grid.dims != 1:
            raise ValueError("raster sets live on the square cylinder")
        vals = q.values.reshape(grid.nx, grid.nt)
        cells = np.arange(resolution)

        def nearest(n):
            # ceil(((2i + 1) n - R) / 2R) in exact integers
            return -((resolution - (2 * cells + 1) * n) // (2 * resolution)) % n

        return RasterSet((vals[np.ix_(nearest(grid.nx), nearest(grid.nt))] > threshold)
                         .astype(np.uint8))


def slice_profiles(omega: RasterSet):
    """Measures of characteristic slices A_xi, B_eta for offsets on the raster grid.

    Slices are traced through the doubled set; since the full x-period line at
    offset xi + 2pi stays inside the doubled strip, the lookup reduces to an
    index shift mod R.
    """
    counts_a, counts_b = _accel.char_slice_counts(omega.mask)
    h = omega.cell_width
    offsets = h * np.arange(omega.resolution)
    return offsets, counts_a * h, counts_b * h


def xi_eta_infimum(omega: RasterSet):
    """(inf_xi |A_xi|, inf_eta |B_eta|) over the rasterized offsets."""
    if omega.resolution < 64:
        raise ValueError("raster resolution must be >= 64")
    _, meas_a, meas_b = slice_profiles(omega)
    return float(meas_a.min()), float(meas_b.min())


def rectangle_margin(a1: float, b1: float, a2: float, b2: float) -> float:
    """The two side lengths of [a1, b1] x [a2, b2], each an ``arc``, minus 2pi;
    positive iff the rectangle criterion holds."""
    return arc("x", (a1, b1))[1] + arc("t", (a2, b2))[1] - TWO_PI
