import numpy as np
import pytest

from wavegs import (
    DomainSpec,
    EnergyContext,
    NonlinearitySpec,
    OperatorSpec,
    ProductGrid,
    SpectralField,
    WeightField,
    build_catalog,
)


@pytest.fixture(scope="session")
def circle_wave_cat():
    """Classical wave on the circle, K = L = 8 (infinite-dimensional kernel shadow)."""
    return build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 8, 8)


@pytest.fixture(scope="session")
def circle_beam_cat():
    """Fourth-order operator on the circle, K = L = 4."""
    return build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 4, 4)


@pytest.fixture(scope="session")
def torus2_cat():
    """T^2 with the biharmonic operator, small cutoffs."""
    return build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 2, 2)


@pytest.fixture(scope="session")
def sphere_kg_cat():
    """Klein-Gordon preset on S^3."""
    return build_catalog(DomainSpec.sphere(3), OperatorSpec.klein_gordon(3), 5, 5)


def make_context(catalog, p=4.0, weight_value=1.0, oversample=2, terms=None):
    grid = ProductGrid.for_catalog(catalog, oversample)
    weight = WeightField.constant(grid, weight_value)
    spec = NonlinearitySpec(terms) if terms else NonlinearitySpec.pure_power(p)
    return EnergyContext(catalog, grid, weight, spec)


def random_field(catalog, rng, scale=1.0):
    return SpectralField(catalog, scale * rng.standard_normal(catalog.size))


def phi_gradient(u: SpectralField, ctx: EnergyContext) -> SpectralField:
    """Coefficient gradient of Phi: lambda * a - analyze(q f(u))."""
    g = ctx.analyze_values(ctx.pointwise(ctx.synth(u.coeffs))[1])
    return SpectralField(u.catalog, u.catalog.eig * u.coeffs - g)
