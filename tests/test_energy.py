import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavegs import (
    DomainSpec,
    EnergyContext,
    I_eval,
    ModeKey,
    NonlinearitySpec,
    OperatorSpec,
    ProductGrid,
    SpectralField,
    WeightField,
    _accel,
    analyze,
    build_catalog,
    phi_eval,
    residual_dual_norm,
    synthesize,
    weight_rectangle,
)
from wavegs.energy import quadrature_refinement_gap
from wavegs.fields import basis_rows
from conftest import make_context, phi_gradient, random_field

TWO_PI = 2 * np.pi


@pytest.mark.parametrize("terms, message", [
    ((), "need at least one nonlinearity term"),
    (((1.0, 2.0),), "exponents must exceed 2 and be finite"),
    (((-1.0, 3.0),), "amplitudes must be positive"),
    (((1.0, 4.0), (1.0, 3.0)), "exponents must be strictly increasing"),
], ids=["no-terms", "p-2", "negative-amplitude", "not-increasing"])
def test_nonlinearity_checks_name_the_fault(terms, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        NonlinearitySpec(terms)


def test_spec_validation():
    # NaN passed the old a <= 0 and p <= 2 tests and failed deep in a solve
    for bad in (((math.nan, 4.0),), ((1.0, math.nan),), ((1.0, math.inf),),
                ((1.0, 3.0), (1.0, math.inf))):
        with pytest.raises(ValueError):
            NonlinearitySpec(bad)
    assert NonlinearitySpec(((1.0, 3.0), (2.0, 4.0))).p == 4.0


def f_and_F(s, spec):
    """(f(s), F(s)) elementwise, from the kernels the energy evaluates."""
    s = np.asarray(s, dtype=np.float64)
    return _accel.quasipoly_f(s, spec.terms), _accel.quasipoly_prim(s, spec.terms)


def test_nonlinearity_point_values():
    spec = NonlinearitySpec.pure_power(4.0)
    f, F = f_and_F([0.0, 2.0], spec)
    assert (f[0], F[0]) == (0.0, 0.0)
    assert f[1] == pytest.approx(8.0)
    assert F[1] == pytest.approx(4.0)
    mixed = NonlinearitySpec(((1.0, 3.0), (1.0, 4.0)))
    f, F = f_and_F([-1.0], mixed)
    assert f[0] == pytest.approx(-2.0)
    assert F[0] == pytest.approx(1.0 / 3.0 + 1.0 / 4.0)


@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_nonlinearity_odd_and_primitive_nonnegative(s):
    spec = NonlinearitySpec(((0.5, 2.5), (1.0, 4.0)))
    (f,), (F,) = f_and_F([s], spec)
    (f_neg,), (F_neg,) = f_and_F([-s], spec)
    assert f_neg == pytest.approx(-f, rel=1e-12, abs=1e-12)
    assert F_neg == pytest.approx(F, rel=1e-12, abs=1e-12)
    assert F >= 0.0


def test_primitive_is_integral_of_f():
    spec = NonlinearitySpec(((1.0, 3.0), (0.3, 4.5)))
    s = 1.7
    xs = np.linspace(0.0, s, 20001)
    fs, _ = f_and_F(xs, spec)
    _, (F,) = f_and_F([s], spec)
    assert np.trapezoid(fs, xs) == pytest.approx(F, rel=1e-7)


def test_I_zero_and_constant(circle_beam_cat):
    ctx = make_context(circle_beam_cat)
    assert I_eval(SpectralField.zeros(circle_beam_cat), ctx) == 0.0
    u = SpectralField.zeros(circle_beam_cat)
    u.coeffs[circle_beam_cat.modes.index(ModeKey((0,), 0))] = TWO_PI  # u == 1 pointwise
    assert I_eval(u, ctx) == pytest.approx(np.pi**2, rel=1e-12)


def test_I_vanishes_when_weight_misses_support():
    # q concentrated on the zero set {0, pi} of sin(x): I(u) = 0 exactly
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 2, 0)
    grid = ProductGrid.for_catalog(cat)
    qv = np.zeros((grid.nx, grid.nt))
    qv[0, :] = 1.0
    qv[grid.nx // 2, :] = 1.0
    ctx = EnergyContext(cat, grid, WeightField(grid, qv.ravel()), NonlinearitySpec.pure_power(4))
    u = SpectralField.zeros(cat)
    u.coeffs[cat.modes.index(ModeKey((-1,), 0))] = 2.0  # sin(x) branch
    # sin(pi) at a float node is one ulp, so I is zero up to (ulp)^4
    assert abs(I_eval(u, ctx)) < 1e-60


def test_phi_single_plus_mode_zero_weight():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 3, 4)
    grid = ProductGrid.for_catalog(cat)
    ctx = EnergyContext(cat, grid, WeightField(grid, np.zeros(grid.n_points)),
                        NonlinearitySpec.pure_power(4))
    u = SpectralField.zeros(cat)
    u.coeffs[cat.modes.index(ModeKey((3,), 2))] = 2.0  # lambda = 5
    assert phi_eval(u, ctx) == pytest.approx(10.0, rel=1e-14)
    assert phi_eval(SpectralField.zeros(cat), ctx) == 0.0


def test_phi_constant_closed_form():
    # P(tau) = tau + 1/2, constant physical value c0: Phi = pi^2 (c0^2 - c0^4)
    from fractions import Fraction

    cat = build_catalog(DomainSpec.circle(), OperatorSpec((Fraction(1, 2), 1)), 2, 2)
    ctx = make_context(cat)
    for c0 in (0.3, 0.9):
        u = SpectralField.zeros(cat)
        u.coeffs[cat.modes.index(ModeKey((0,), 0))] = TWO_PI * c0
        assert phi_eval(u, ctx) == pytest.approx(np.pi**2 * (c0**2 - c0**4), rel=1e-12)


def test_gradient_zero_at_origin(circle_beam_cat):
    ctx = make_context(circle_beam_cat)
    g = phi_gradient(SpectralField.zeros(circle_beam_cat), ctx)
    assert np.all(g.coeffs == 0.0)


@pytest.mark.parametrize("terms", [((1.0, 4.0),), ((1.0, 3.0), (0.5, 4.0))])
def test_gradient_matches_finite_differences(circle_beam_cat, terms):
    ctx = make_context(circle_beam_cat, terms=terms)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(10):
        u = random_field(circle_beam_cat, rng, scale=0.5)
        v = random_field(circle_beam_cat, rng, scale=1.0)
        up = SpectralField(circle_beam_cat, u.coeffs + h * v.coeffs)
        dn = SpectralField(circle_beam_cat, u.coeffs - h * v.coeffs)
        fd = (phi_eval(up, ctx) - phi_eval(dn, ctx)) / (2 * h)
        an = float(phi_gradient(u, ctx).coeffs @ v.coeffs)
        assert an == pytest.approx(fd, rel=1e-5)


def test_constant_critical_point_residual():
    from fractions import Fraction

    cat = build_catalog(DomainSpec.circle(), OperatorSpec((Fraction(1, 2), 1)), 4, 4)
    ctx = make_context(cat)
    u = SpectralField.zeros(cat)
    u.coeffs[cat.modes.index(ModeKey((0,), 0))] = TWO_PI * math.sqrt(0.5)
    assert residual_dual_norm(phi_gradient(u, ctx)) < 1e-8


def test_residual_examples(circle_wave_cat):
    z = SpectralField.zeros(circle_wave_cat)
    assert residual_dual_norm(z) == 0.0
    g = SpectralField.zeros(circle_wave_cat)
    i = circle_wave_cat.modes.index(ModeKey((2,), 0))  # lambda = 4
    g.coeffs[i] = 2.0
    assert residual_dual_norm(g) == pytest.approx(1.0)


def test_residual_monotone_under_domination(circle_wave_cat):
    rng = np.random.default_rng(12)
    g2 = random_field(circle_wave_cat, rng)
    shrink = rng.uniform(0.0, 1.0, circle_wave_cat.size)
    g1 = SpectralField(circle_wave_cat, g2.coeffs * shrink)
    assert residual_dual_norm(g1) <= residual_dual_norm(g2)


def test_superquadratic_monotonicity(circle_beam_cat):
    ctx = make_context(circle_beam_cat, terms=((1.0, 3.0), (1.0, 4.0)))
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = random_field(circle_beam_cat, rng, scale=0.4)
        if I_eval(u, ctx) <= 0:
            continue
        ratios = [I_eval(SpectralField(circle_beam_cat, t * u.coeffs), ctx) / t**2
                  for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(ratios, ratios[1:]))


def test_pure_power_scaling_exactness(circle_beam_cat):
    ctx = make_context(circle_beam_cat, p=4.0)
    rng = np.random.default_rng(14)
    u = random_field(circle_beam_cat, rng, scale=0.7)
    base = I_eval(u, ctx)
    for t in (0.5, 2.0, 3.0):
        scaled = I_eval(SpectralField(circle_beam_cat, t * u.coeffs), ctx)
        assert scaled == pytest.approx(t**4 * base, rel=1e-12)
    # strict monotonicity of I(tu)/t^2 for the pure power
    r1 = I_eval(SpectralField(circle_beam_cat, 1.0 * u.coeffs), ctx) / 1.0
    r2 = I_eval(SpectralField(circle_beam_cat, 2.0 * u.coeffs), ctx) / 4.0
    assert r2 > r1


def test_weight_scaling_identity(circle_beam_cat):
    # Phi_{aq}(a^{-1/(p-2)} u) = a^{-2/(p-2)} Phi_q(u) for the pure power
    p = 4.0
    rng = np.random.default_rng(15)
    u = random_field(circle_beam_cat, rng, scale=0.6)
    ctx1 = make_context(circle_beam_cat, p=p, weight_value=1.0)
    base = phi_eval(u, ctx1)
    for alpha in (0.5, 2.0):
        ctx_a = make_context(circle_beam_cat, p=p, weight_value=alpha)
        scaled_u = SpectralField(circle_beam_cat, alpha ** (-1.0 / (p - 2)) * u.coeffs)
        assert phi_eval(scaled_u, ctx_a) == pytest.approx(
            alpha ** (-2.0 / (p - 2)) * base, rel=1e-12
        )
        assert I_eval(u, ctx_a) == pytest.approx(alpha * I_eval(u, ctx1), rel=1e-12)


def test_context_rejects_mismatched_grid(circle_beam_cat):
    grid = ProductGrid.for_catalog(circle_beam_cat)
    other = ProductGrid(1, grid.nx + 2, grid.nt)
    with pytest.raises(ValueError):
        EnergyContext(circle_beam_cat, grid, WeightField.constant(other),
                      NonlinearitySpec.pure_power(4))


@pytest.mark.parametrize("dims, nx, nt", [(1, 9, 10), (1, 10, 9), (2, 10, 10)])
def test_context_rejects_a_grid_too_coarse_or_of_another_dimension(circle_beam_cat, dims, nx, nt):
    # K = L = 4 needs nx, nt >= 10 on the circle; the transform makes the one check
    grid = ProductGrid(dims, nx, nt)
    with pytest.raises(ValueError, match="grid too coarse"):
        EnergyContext(circle_beam_cat, grid, WeightField.constant(grid),
                      NonlinearitySpec.pure_power(4))


def test_quadrature_gap_matches_table_reference():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 3, 3)
    grid = ProductGrid.for_catalog(cat)
    x, t = grid.meshgrid()
    weight = WeightField(grid, 1.0 + 0.5 * np.cos(x) * np.sin(2 * t))
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec.pure_power(3.5))
    u = random_field(cat, np.random.default_rng(11))
    fine = ProductGrid(1, 2 * grid.nx, 2 * grid.nt)
    fine_vals = u.coeffs @ basis_rows(cat, fine, np.arange(cat.size))
    fine_q = np.repeat(np.repeat(weight.values.reshape(grid.nx, grid.nt), 2, 0), 2, 1).ravel()
    fine_I = float(np.sum(fine_q * np.abs(fine_vals) ** 3.5 / 3.5)) * fine.quad_weight
    expected = abs(fine_I - I_eval(u, ctx))
    assert expected > 1e-6
    assert quadrature_refinement_gap(u, ctx) == pytest.approx(expected, rel=1e-12)


def test_torus2_contexts_beyond_old_table_cap():
    # K = L = 8 was refused at set-up; K = L = 5 failed in the refined-grid gap
    rng = np.random.default_rng(12)
    big = make_context(build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 8, 8))
    g = phi_gradient(random_field(big.catalog, rng, 0.1), big)
    assert np.all(np.isfinite(g.coeffs))
    mid = make_context(build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 5, 5))
    assert math.isfinite(quadrature_refinement_gap(random_field(mid.catalog, rng, 0.1), mid))


def _rectangle_context(power, cutoff, t_span, outside=0.0):
    """The README weight (x in [0, 4.71]) with the given t side, circle, p = 4."""
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(power), cutoff, cutoff)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), t_span, 1.0, outside, 0.1)
    return EnergyContext(cat, grid, weight, NonlinearitySpec.pure_power(4.0))


@pytest.mark.parametrize("power, cutoff, t_span, hull_fraction", [
    pytest.param(2, 8, (0.0, 6.2832), 0.722, id="beam"),
    pytest.param(1, 16, (0.0, 3.1416), 0.368, id="spacetime_wave"),
])
def test_phi_and_q_f_on_the_support_hull_match_the_whole_grid(power, cutoff, t_span,
                                                               hull_fraction):
    # the context evaluates on the weight's support hull only; the reference
    # runs the rectangle rule over every node, where q = 0 adds nothing
    ctx = _rectangle_context(power, cutoff, t_span)
    cat, grid, q = ctx.catalog, ctx.grid, ctx.weight.values
    assert len(ctx.q) / grid.n_points == pytest.approx(hull_fraction, abs=1e-3)
    u = SpectralField(cat, np.random.default_rng(0).standard_normal(cat.size) / cat.metric)
    phi, qf = ctx.phi(u.coeffs)
    F, f = _accel.quasipoly(synthesize(u, grid), ctx.nonlinearity.terms)
    phi_ref = 0.5 * float(u.coeffs @ (cat.eig * u.coeffs)) - float(np.sum(q * F)) * grid.quad_weight
    g_ref = analyze(q * f, cat, grid).coeffs
    assert abs(phi - phi_ref) <= 1e-15 * abs(phi_ref)
    assert np.max(np.abs(ctx.analyze_values(qf) - g_ref)) <= 1e-15 * np.max(np.abs(g_ref))


def test_a_weight_with_no_zero_node_evaluates_on_the_whole_grid():
    ctx = _rectangle_context(2, 8, (0.0, 3.1416), outside=0.2)
    u = random_field(ctx.catalog, np.random.default_rng(1))
    assert np.array_equal(ctx.synth(u.coeffs), synthesize(u, ctx.grid))
    assert ctx.q is ctx.weight.values
