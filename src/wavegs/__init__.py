"""Spectral Galerkin ground states for time-periodic nonlinear waves.

Computes least-energy time-periodic solutions of P(-Laplace)u + u_tt = q f(u)
on circle/torus cylinders through a saddle-point reduction of the strongly
indefinite energy, plus numerical diagnostics for the compact-embedding and
kernel-control hypotheses behind the method.
"""

__version__ = "0.1.0"

from .catalog import (
    DomainSpec,
    ModeKey,
    OperatorSpec,
    SpectralCatalog,
    build_catalog,
    eigenvalue,
    laplace_eigenvalue,
    sphere_multiplicity,
)
from .control import (
    CircleProfile,
    GramReport,
    RasterSet,
    dalembert_split,
    kernel_gram,
    rectangle_margin,
    slice_profiles,
    xi_eta_infimum,
)
from .embedding import (
    SeriesReport,
    compactness_threshold,
    gap_ratio_bracket,
    noncompact_witness,
    sphere_embedding_series,
    torus_gap_series,
)
from .energy import (
    EnergyContext,
    NonlinearitySpec,
    I_eval,
    phi_eval,
    residual_dual_norm,
)
from .fields import (
    ProductGrid,
    SpectralField,
    WeightField,
    analyze,
    energy_norms,
    field_to_csv,
    norm_zero,
    project,
    synthesize,
    weight_rectangle,
)
from .saddle import (
    GroundStateResult,
    NoCoerciveDirectionError,
    SaddleResult,
    SolverConfig,
    ground_state,
    inner_maximize,
    lowest_plus_direction,
    plus_norm,
    psi_gradient,
    random_plus_direction,
)
