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
    def x_nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.nx) / self.nx

    @property
    def t_nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.nt) / self.nt

    @property
    def n_points(self) -> int:
        return self.nx**self.dims * self.nt

    @property
    def quad_weight(self) -> float:
        return (TWO_PI / self.nx) ** self.dims * (TWO_PI / self.nt)

    def compliant_with(self, catalog: SpectralCatalog) -> bool:
        return (
            catalog.domain.kind == TORUS
            and catalog.domain.dim == self.dims
            and self.nx >= 2 * catalog.k_max + 2
            and self.nt >= 2 * catalog.l_max + 2
        )

    def meshgrid(self):
        """Flattened coordinate arrays (x_1, ..., x_dims, t), C-order."""
        axes = [self.x_nodes] * self.dims + [self.t_nodes]
        mesh = np.meshgrid(*axes, indexing="ij")
        return [m.ravel() for m in mesh]


def _axis_table(cutoff: int, nodes: np.ndarray) -> np.ndarray:
    """(2*cutoff+1, len(nodes)) circle factor values: rows are signed indices -cutoff..cutoff."""
    angles = np.arange(1, cutoff + 1)[:, None] * nodes
    const = np.full((1, len(nodes)), _INV_SQRT_2PI)
    return np.vstack([np.sin(angles[::-1]) * _INV_SQRT_PI, const, np.cos(angles) * _INV_SQRT_PI])


def _axis_tables(catalog: SpectralCatalog, grid: ProductGrid):
    if not grid.compliant_with(catalog):
        raise ValueError("grid too coarse (or wrong shape) for catalog")
    return _axis_table(catalog.k_max, grid.x_nodes), _axis_table(catalog.l_max, grid.t_nodes)


def mode_factors(catalog: SpectralCatalog, grid: ProductGrid, mode_indices):
    """Space and time factors of a subset of modes: (len(idx), nx^dims) and (len(idx), nt).

    Basis function a at grid point (x, t) is space[a, x] * time[a, t].
    """
    x_table, t_table = _axis_tables(catalog, grid)
    idx = np.asarray(mode_indices, dtype=int)
    rows = catalog.space[idx] + catalog.k_max
    space = np.ones((len(idx), 1))
    for axis in range(grid.dims):
        space = (space[:, :, None] * x_table[rows[:, axis]][:, None, :]).reshape(len(idx), -1)
    return space, t_table[catalog.l[idx] + catalog.l_max]


def basis_rows(catalog: SpectralCatalog, grid: ProductGrid, mode_indices) -> np.ndarray:
    """Basis-value table for a subset of modes, (len(idx), n_points); uncached."""
    space, time = mode_factors(catalog, grid, mode_indices)
    return (space[:, :, None] * time[:, None, :]).reshape(len(space), -1)


class TensorTransform:
    """Synthesis/analysis as dims+1 per-axis products; values are in the grid's C order.

    Each product contracts the box's leading axis and appends the grid axis at the back.
    """

    def __init__(self, catalog: SpectralCatalog, grid: ProductGrid):
        x_table, t_table = _axis_tables(catalog, grid)
        self.index = catalog.tensor_index
        self.quad_weight = grid.quad_weight
        self._to_grid = [x_table] * grid.dims + [t_table]
        self._to_box = [table.T for table in self._to_grid]

    @staticmethod
    def _contract(a: np.ndarray, tables) -> np.ndarray:
        for table in tables:
            a = a.reshape(table.shape[0], -1).T @ table
        return a.ravel()

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        box = np.empty(len(self.index))
        box[self.index] = coeffs
        return self._contract(box, self._to_grid)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        return self._contract(values, self._to_box)[self.index] * self.quad_weight


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

    @staticmethod
    def from_function(grid: ProductGrid, fn) -> "WeightField":
        coords = grid.meshgrid()
        return WeightField(grid, fn(*coords))

    def is_trivial(self) -> bool:
        return bool(np.all(self.values == 0.0))


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
    return WeightField(grid, np.broadcast_to(plane, (grid.nx,) * grid.dims + (grid.nt,)).copy())


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
    """(norm_plus, norm_minus, norm_L2): the lambda-weighted signed norms and l2."""
    lam = u.catalog.eig
    sq = u.coeffs * u.coeffs
    plus = math.sqrt(float(np.sum(np.where(lam > 0, lam, 0.0) * sq)))
    minus = math.sqrt(float(np.sum(np.where(lam < 0, -lam, 0.0) * sq)))
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
