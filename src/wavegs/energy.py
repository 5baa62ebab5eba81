"""Energy functional for the weighted superlinear wave problem.

Phi(u) = 1/2 <lambda u, u> - I(u),  I(u) = integral of q F(u), with a
quasipolynomial nonlinearity f(s) = sum_i a_i |s|^(p_i - 2) s; the quadratic
part is 1/2 ||u+||_+^2 - 1/2 ||u-||_-^2.  The coefficient-space gradient is
lambda * u - g with g the analyzed nonlinear term, which covers plus, kernel
and minus modes in one formula.  ``EnergyContext.phi`` is the one statement of
Phi: one pass of the pointwise kernel (``EnergyContext.pointwise``) gives both
I(u) and q f(u) from the values of u on the weight's support hull, one power
per term.  ``phi_eval`` and the solver's inner ascent, which analyzes q f(u)
(``analyze_values``) for its gradient, both read it, so they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel, control
from .catalog import SpectralCatalog
from .fields import ProductGrid, SpectralField, TensorTransform, WeightField, synthesize


@dataclass(frozen=True)
class NonlinearitySpec:
    """Quasipolynomial terms (a_i, p_i): amplitudes > 0, exponents > 2 increasing."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((float(a), float(p)) for a, p in self.terms)
        if not terms:
            raise ValueError("need at least one nonlinearity term")
        for a, p in terms:
            if not a > 0:  # NaN fails too
                raise ValueError("amplitudes must be positive")
            if not 2 < p < math.inf:
                raise ValueError("exponents must exceed 2 and be finite")
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


class EnergyContext:
    """Catalog + grid + weight + nonlinearity, with the transform plan baked in.

    The transform runs on the weight's support hull (``WeightField.support_hull``):
    nodes where q vanishes add nothing to I(u) or to q f(u), so ``synth`` returns
    u on the hull only, ``q`` and ``qw`` hold the weight there, and
    ``pointwise``/``analyze_values`` take hull values.  When the hull is the whole
    grid every array is the full grid's, in its C order.
    """

    def __init__(
        self,
        catalog: SpectralCatalog,
        grid: ProductGrid,
        weight: WeightField,
        nonlinearity: NonlinearitySpec,
    ):
        if weight.grid != grid:
            raise ValueError("weight lives on a different grid")
        self.catalog = catalog
        self.grid = grid
        self.weight = weight
        self.nonlinearity = nonlinearity
        hull = weight.support_hull()
        self._transform = TensorTransform(catalog, grid, hull)
        self.q = weight.values if hull is None else (
            weight.values.reshape(grid.shape)[np.ix_(*hull)].ravel())
        self.qw = self.q * grid.quad_weight  # q times the rectangle-rule weight
        self.transforms = 0  # synth calls, the transforms a solve reports

    @cached_property
    def kernel_report(self):
        """The q-Gram report, whose ``basis`` is the kernel block of every ascent: one
        ``control.kernel_gram`` call (looked up at call time), shared by every solve."""
        return control.kernel_gram(self.weight, self.catalog, self.grid)

    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        """Values of the coefficients on the support hull."""
        self.transforms += 1
        return self._transform.synth(coeffs)

    def analyze_values(self, values: np.ndarray) -> np.ndarray:
        """Catalog coefficients of hull values that vanish off the hull (rectangle-rule
        inner products)."""
        return self._transform.analyze(values)

    def pointwise(self, values: np.ndarray) -> tuple:
        """(I(u), q f(u)) from the hull values of u, one ``_accel.quasipoly`` pass."""
        F, f = _accel.quasipoly(values, self.nonlinearity.terms)
        f *= self.q
        return float(self.qw @ F), f

    def potential_from_values(self, values: np.ndarray) -> float:
        return self.pointwise(values)[0]

    def phi(self, coeffs: np.ndarray) -> tuple:
        """(Phi(u), q f(u)) of the coefficients u: 1/2 <lambda u, u> - I(u), one synthesis."""
        potential, qf = self.pointwise(self.synth(coeffs))
        return 0.5 * float(coeffs @ (self.catalog.eig * coeffs)) - potential, qf


def I_eval(u: SpectralField, ctx: EnergyContext) -> float:
    """Weighted potential integral of q F(u); nonnegative."""
    return ctx.potential_from_values(ctx.synth(u.coeffs))


def phi_eval(u: SpectralField, ctx: EnergyContext) -> float:
    """Phi(u) = 1/2 <lambda u, u> - I(u), as ``EnergyContext.phi`` states it."""
    return ctx.phi(u.coeffs)[0]


def residual_dual_norm(g: SpectralField) -> float:
    """Dual criticality measure: g^2 over the catalog ``metric``, |lambda| off the kernel."""
    return math.sqrt(float(np.sum(g.coeffs * g.coeffs / g.catalog.metric)))


def quadrature_refinement_gap(u: SpectralField, ctx: EnergyContext) -> float:
    """|I(u) on the working grid - I(u) on a 2x refined grid|.

    Reported alongside solves as the fractional-power quadrature error proxy.
    The weight is not resampled: coarse node i's value is repeated onto fine
    nodes 2i and 2i+1 along each axis, so only a constant weight is exact there.
    """
    fine = ProductGrid(ctx.grid.dims, 2 * ctx.grid.nx, 2 * ctx.grid.nt)
    vals = synthesize(u, fine)
    reps = ctx.weight.values.reshape(ctx.grid.shape)
    for ax in range(reps.ndim):
        reps = np.repeat(reps, 2, axis=ax)
    F, _ = _accel.quasipoly(vals, ctx.nonlinearity.terms)
    fine_I = float(np.sum(reps.ravel() * F)) * fine.quad_weight
    return abs(fine_I - I_eval(u, ctx))
