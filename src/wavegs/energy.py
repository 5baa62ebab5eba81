"""Energy functional for the weighted superlinear wave problem.

Phi(u) = 1/2 ||u+||_+^2 - 1/2 ||u-||_-^2 - I(u),  I(u) = integral of q F(u),
with a quasipolynomial nonlinearity f(s) = sum_i a_i |s|^(p_i - 2) s.  The
coefficient-space gradient is lambda * a - g with g the analyzed nonlinear
term, which covers plus, kernel and minus modes in one formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel, control
from .catalog import SpectralCatalog
from .fields import ProductGrid, SpectralField, TensorTransform, WeightField, energy_norms, synthesize


@dataclass(frozen=True)
class NonlinearitySpec:
    """Quasipolynomial terms (a_i, p_i): amplitudes > 0, exponents > 2 increasing."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(a), float(p)) for a, p in self.terms)
        if not terms:
            raise ValueError("need at least one nonlinearity term")
        for a, p in terms:
            if a <= 0:
                raise ValueError("amplitudes must be positive")
            if p <= 2:
                raise ValueError("exponents must exceed 2")
        ps = [p for _, p in terms]
        if any(q <= p for p, q in zip(ps, ps[1:])):
            raise ValueError("exponents must be strictly increasing")
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def pure_power(p: float, amplitude: float = 1.0) -> "NonlinearitySpec":
        return NonlinearitySpec(((amplitude, p),))

    @property
    def p(self) -> float:
        """Growth exponent: the largest p_i."""
        return self.terms[-1][1]

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for a, _ in self.terms])

    @property
    def exponents(self) -> np.ndarray:
        return np.array([p for _, p in self.terms])


class EnergyContext:
    """Catalog + grid + weight + nonlinearity, with the transform plan baked in."""

    def __init__(
        self,
        catalog: SpectralCatalog,
        grid: ProductGrid,
        weight: WeightField,
        nonlinearity: NonlinearitySpec,
    ):
        if not grid.compliant_with(catalog):
            raise ValueError("grid is not compliant with the catalog cutoffs")
        if weight.grid != grid:
            raise ValueError("weight lives on a different grid")
        self.catalog = catalog
        self.grid = grid
        self.weight = weight
        self.nonlinearity = nonlinearity
        self._transform = TensorTransform(catalog, grid)
        self._qw = weight.values * grid.quad_weight
        self._amps = nonlinearity.amplitudes
        self._exps = nonlinearity.exponents

    @cached_property
    def kernel_report(self):
        """The q-Gram report, whose ``basis`` is the kernel block of every ascent: one
        ``control.kernel_gram`` call (looked up at call time), shared by every solve."""
        return control.kernel_gram(self.weight, self.catalog, self.grid)

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        return self._transform.synth(coeffs)

    def potential_from_values(self, values: np.ndarray) -> float:
        F = _accel.quasipoly_prim(values, self._amps, self._exps)
        return float(self._qw @ F)

    def nonlinear_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Analyzed coefficients of q f(u): the I'(u) part of the gradient."""
        f = _accel.quasipoly_f(values, self._amps, self._exps)
        return self._transform.analyze(self.weight.values * f)


def I_eval(u: SpectralField, ctx: EnergyContext) -> float:
    """Weighted potential integral of q F(u); nonnegative."""
    return ctx.potential_from_values(ctx.synth(u.coeffs))


def phi_eval(u: SpectralField, ctx: EnergyContext) -> float:
    """Phi(u) = 1/2 (||u+||_+^2 - ||u-||_-^2) - I(u)."""
    plus, minus, _ = energy_norms(u)
    return 0.5 * (plus * plus - minus * minus) - I_eval(u, ctx)


def residual_dual_norm(g: SpectralField) -> float:
    """Dual criticality measure: g^2/|lambda| off the kernel, plain l2 on it."""
    lam = g.catalog.eig
    weights = np.where(g.catalog.classes != 0, 1.0 / np.maximum(np.abs(lam), 1e-300), 1.0)
    return math.sqrt(float(np.sum(g.coeffs * g.coeffs * weights)))


def quadrature_refinement_gap(u: SpectralField, ctx: EnergyContext) -> float:
    """|I(u) on the working grid - I(u) on a 2x refined grid|.

    Reported alongside solves as the fractional-power quadrature error proxy.
    The weight is not resampled: coarse node i's value is repeated onto fine
    nodes 2i and 2i+1 along each axis, so only a constant weight is exact there.
    """
    fine = ProductGrid(ctx.grid.dims, 2 * ctx.grid.nx, 2 * ctx.grid.nt)
    vals = synthesize(u, fine)
    coarse_vals = ctx.weight.values.reshape((ctx.grid.nx,) * ctx.grid.dims + (ctx.grid.nt,))
    reps = np.repeat(coarse_vals, 2, axis=-1)
    for ax in range(ctx.grid.dims):
        reps = np.repeat(reps, 2, axis=ax)
    F = _accel.quasipoly_prim(vals, ctx.nonlinearity.amplitudes, ctx.nonlinearity.exponents)
    fine_I = float(np.sum(reps.ravel() * F)) * fine.quad_weight
    return abs(fine_I - I_eval(u, ctx))
