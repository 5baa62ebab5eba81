"""Coefficient fields over a spectral catalog and the product-grid transforms.

Fields are plain real coefficient vectors in the catalog's orthonormal basis.
Synthesis/analysis on a uniform tensor grid contract one small cos/sin table
per axis (sum factorization); the rectangle rule is spectrally exact there, so
round trips on truncated trig polynomials hold to roundoff as long as the grid
satisfies G >= 2*cutoff + 2 per axis.  Spheres carry no grid (degree and
multiplicity bookkeeping only), so synthesis is a torus/circle affair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import TORUS, SpectralCatalog

TWO_PI = 2.0 * math.pi

_INV_SQRT_2PI = 1.0 / math.sqrt(TWO_PI)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


@dataclass
class SpectralField:
    """Real coefficients over a catalog's modes."""

    catalog: SpectralCatalog
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.catalog.size,):
            raise ValueError(
                f"coefficient count {self.coeffs.shape} does not match catalog size {self.catalog.size}"
            )
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    @staticmethod
    def zeros(catalog: SpectralCatalog) -> "SpectralField":
        return SpectralField(catalog, np.zeros(catalog.size))

    def to_json(self):
        return {"catalog": self.catalog.digest, "coefficients": self.coeffs.tolist()}


@dataclass(frozen=True)
class ProductGrid:
    """Uniform tensor grid on [0, 2pi)^dims x [0, 2pi) with rectangle weights."""

    dims: int
    nx: int
    nt: int

    def __post_init__(self):
        if self.nx < 2 or self.nt < 2:
            raise ValueError("need at least two points per axis")

    @staticmethod
    def for_catalog(catalog: SpectralCatalog, oversample: int = 2) -> "ProductGrid":
        if catalog.domain.kind != TORUS:
            raise ValueError("grids exist only for circle/torus domains")
        if oversample < 1:
            raise ValueError("oversample must be >= 1")
        return ProductGrid(
            catalog.domain.dim,
            oversample * (2 * catalog.k_max + 2),
            oversample * (2 * catalog.l_max + 2),
        )

    @property
    def shape(self) -> tuple:
        """Node count per axis (x_1, ..., x_dims, t): the C order of every value array."""
        return (self.nx,) * self.dims + (self.nt,)

    @property
    def axes(self) -> list:
        """Uniform nodes per axis, in ``shape`` order."""
        return [TWO_PI * np.arange(n) / n for n in self.shape]

    @property
    def x_nodes(self) -> np.ndarray:
        return self.axes[0]

    @property
    def t_nodes(self) -> np.ndarray:
        return self.axes[-1]

    @property
    def n_points(self) -> int:
        return math.prod(self.shape)

    @property
    def quad_weight(self) -> float:
        return (TWO_PI / self.nx) ** self.dims * (TWO_PI / self.nt)

    def compliant_with(self, catalog: SpectralCatalog) -> bool:
        return (
            catalog.domain.kind == TORUS
            and catalog.domain.dim == self.dims
            and all(n >= 2 * c + 2 for n, c in zip(self.shape, catalog.cutoffs))
        )

    def meshgrid(self):
        """Flattened coordinate arrays (x_1, ..., x_dims, t), C-order."""
        return [m.ravel() for m in np.meshgrid(*self.axes, indexing="ij")]


def axis_amplitudes(signed) -> np.ndarray:
    """beta_r per signed circle index r, whose basis factor is 2 Re(beta_r e^{i|r|x}):
    cos(|r|x)/sqrt(pi) for r > 0, sin(|r|x)/sqrt(pi) for r < 0 and 1/sqrt(2pi) for r = 0."""
    r = np.asarray(signed)
    return np.where(r > 0, 0.5 * _INV_SQRT_PI,
                    np.where(r < 0, -0.5j * _INV_SQRT_PI, 0.5 * _INV_SQRT_2PI))


def _axis_table(cutoff: int, nodes: np.ndarray) -> np.ndarray:
    """(2*cutoff+1, len(nodes)) circle factor values: rows are signed indices -cutoff..cutoff,
    each 2 Re(axis_amplitudes(r) e^{i|r|x}) evaluated as a real cos or sin."""
    angles = np.arange(1, cutoff + 1)[:, None] * nodes
    const = np.full((1, len(nodes)), _INV_SQRT_2PI)
    return np.vstack([np.sin(angles[::-1]) * _INV_SQRT_PI, const, np.cos(angles) * _INV_SQRT_PI])


def _axis_tables(catalog: SpectralCatalog, grid: ProductGrid, nodes=None) -> list:
    """One ``_axis_table`` per axis, on the grid's nodes or on the ``nodes`` selection."""
    if not grid.compliant_with(catalog):
        raise ValueError("grid too coarse (or wrong shape) for catalog")
    axes = grid.axes if nodes is None else [a[sel] for a, sel in zip(grid.axes, nodes)]
    return [_axis_table(c, a) for c, a in zip(catalog.cutoffs, axes)]


def basis_rows(catalog: SpectralCatalog, grid: ProductGrid, mode_indices) -> np.ndarray:
    """Basis-value table for a subset of modes, (len(idx), n_points); uncached.

    Each row is the outer product of the mode's circle factors, one per axis.
    """
    tables = _axis_tables(catalog, grid)
    idx = np.asarray(mode_indices, dtype=int)
    rows = catalog.coords[idx] + catalog.cutoffs
    out = np.ones((len(idx), 1))
    for table, row in zip(tables, rows.T):
        out = (out[:, :, None] * table[row][:, None, :]).reshape(len(idx), -1)
    return out


class TensorTransform:
    """Synthesis/analysis as dims+1 per-axis products; coefficients are the catalog's
    box and values the grid, each in its C order.

    ``nodes`` selects grid nodes per axis (``grid.shape`` order; default every node):
    values then live on the product of the selections, and analysis is the
    rectangle rule over it alone, exact for values that vanish off it.
    Each product contracts the leading axis and appends the other side's axis at the back.
    """

    def __init__(self, catalog: SpectralCatalog, grid: ProductGrid, nodes=None):
        self._to_grid = _axis_tables(catalog, grid, nodes)
        self.quad_weight = grid.quad_weight
        self._to_box = [table.T for table in self._to_grid]

    @staticmethod
    def _contract(a: np.ndarray, tables) -> np.ndarray:
        for table in tables:
            a = a.reshape(table.shape[0], -1).T @ table
        return a.ravel()

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        return self._contract(coeffs, self._to_grid)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return self._contract(values, self._to_box) * self.quad_weight


@dataclass
class WeightField:
    """Sampled nonnegative weight q on a product grid.

    Finite, nonnegative values are enforced here; the solver additionally
    rejects weights that vanish identically (diagnostics may probe that case).
    """

    grid: ProductGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        if self.values.shape != (self.grid.n_points,):
            raise ValueError("weight values do not match grid point count")
        if not np.all((self.values >= 0) & (self.values < np.inf)):  # NaN fails too
            raise ValueError("weight must be finite and nonnegative")

    @staticmethod
    def constant(grid: ProductGrid, value: float = 1.0) -> "WeightField":
        return WeightField(grid, np.full(grid.n_points, float(value)))

    def is_trivial(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def support_hull(self):
        """Per-axis node masks (``grid.shape`` order) of the support hull: on each axis,
        the nodes where q is nonzero somewhere along the other axes.  None when the
        hull is the whole grid, or empty (q vanishes identically)."""
        nonzero = self.values.reshape(self.grid.shape) != 0.0
        axes = range(nonzero.ndim)
        masks = [nonzero.any(axis=tuple(b for b in axes if b != a)) for a in axes]
        if all(m.all() for m in masks) or not masks[0].any():
            return None
        return masks


def arc(name: str, span):
    """A rectangle side [a, b] as the arc (start, length) on the circle: b may wrap
    past 2pi, and a side of a full period or more (to 1e-12) is the whole circle.
    Weights, raster sets and the rectangle margin all read a side through here."""
    if len(span) != 2:
        raise ValueError(f"rectangle {name} span must have two entries, got {len(span)}")
    a, b = span
    if not a <= b:
        raise ValueError(f"malformed rectangle: need a_i <= b_i, but {name} spans [{a}, {b}]")
    return a, (TWO_PI if b - a >= TWO_PI * (1.0 - 1e-12) else b - a)


def _smooth_indicator(x: np.ndarray, start: float, length: float, width: float) -> np.ndarray:
    """Cosine-ramped indicator of an ``arc`` on the circle; ramps eat into the set."""
    if length >= TWO_PI:
        return np.ones_like(np.asarray(x, dtype=float))
    x = np.mod(x - start, TWO_PI)
    if width <= 0:
        return (x <= length).astype(float)
    rise = np.clip(x / width, 0.0, 1.0)
    fall = np.clip((length - x) / width, 0.0, 1.0)
    t = np.where(x <= length, np.minimum(rise, fall), 0.0)
    return 0.5 - 0.5 * np.cos(math.pi * t)


def weight_rectangle(
    grid: ProductGrid,
    x_span,
    t_span,
    inside: float = 1.0,
    outside: float = 0.0,
    smoothing: float = 0.1,
) -> WeightField:
    """Weight that is `inside` on a rectangle in (x_1, t) and `outside` elsewhere.

    For torus dims > 1 the x-interval applies to x_1 only: the (x_1, t) plane is broadcast.
    """
    if not smoothing >= 0:
        raise ValueError("smoothing must be non-negative")
    bump = np.outer(_smooth_indicator(grid.x_nodes, *arc("x", x_span), smoothing),
                    _smooth_indicator(grid.t_nodes, *arc("t", t_span), smoothing))
    plane = np.expand_dims(outside + (inside - outside) * bump, tuple(range(1, grid.dims)))
    return WeightField(grid, np.broadcast_to(plane, grid.shape).copy())


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

_PART_CODE = {"plus": 1, "zero": 0, "minus": -1}


def project(u: SpectralField, part: str) -> SpectralField:
    """Spectral projection P^+, P^0 or P^-: zero out the other classes."""
    code = _PART_CODE[part]
    out = np.where(u.catalog.classes == code, u.coeffs, 0.0)
    return SpectralField(u.catalog, out)


def energy_norms(u: SpectralField):
    """(norm_plus, norm_minus, norm_L2): the ``metric``-weighted norms of the plus and
    minus parts, and l2."""
    cat, sq = u.catalog, u.coeffs * u.coeffs
    plus, minus = (math.sqrt(float(cat.metric[idx] @ sq[idx])) for idx in (cat.plus_idx, cat.minus_idx))
    return plus, minus, math.sqrt(float(np.sum(sq)))


def synthesize(u: SpectralField, grid: ProductGrid) -> np.ndarray:
    """Pointwise values of the basis expansion on the grid (flattened, C-order)."""
    return TensorTransform(u.catalog, grid).synth(u.coeffs)


def analyze(values: np.ndarray, catalog: SpectralCatalog, grid: ProductGrid) -> SpectralField:
    """L2 inner products against the basis via the rectangle rule."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.shape != (grid.n_points,):
        raise ValueError("value array does not match grid")
    return SpectralField(catalog, TensorTransform(catalog, grid).analyze(values))


def norm_zero(u: SpectralField, q: WeightField, p: float) -> float:
    """Weighted kernel norm ( integral of q |P^0 u|^p )^(1/p)."""
    if p <= 2:
        raise ValueError("norm_zero needs p > 2")
    u0 = project(u, "zero")
    vals = synthesize(u0, q.grid)
    acc = float(np.sum(q.values * np.abs(vals) ** p)) * q.grid.quad_weight
    return acc ** (1.0 / p)


def field_to_csv(u: SpectralField, grid: ProductGrid, path) -> None:
    """Grid samples as CSV rows x_1, ..., x_dims, t, value."""
    coords = grid.meshgrid()
    vals = synthesize(u, grid)
    header = ",".join([f"x{i+1}" for i in range(grid.dims)] + ["t", "value"])
    data = np.column_stack(coords + [vals])
    np.savetxt(path, data, delimiter=",", header=header, comments="")
