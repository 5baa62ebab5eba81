import math
import re
import tracemalloc

import numpy as np
import pytest

from wavegs import (
    DomainSpec,
    ModeKey,
    OperatorSpec,
    ProductGrid,
    SpectralField,
    WeightField,
    analyze,
    build_catalog,
    energy_norms,
    norm_zero,
    project,
    synthesize,
    weight_rectangle,
)
from wavegs.fields import _axis_table, _smooth_indicator, arc, axis_amplitudes, basis_rows
from conftest import random_field

TWO_PI = 2 * np.pi


def test_project_partition_and_disjointness(circle_beam_cat):
    rng = np.random.default_rng(0)
    u = random_field(circle_beam_cat, rng)
    parts = [project(u, p) for p in ("plus", "zero", "minus")]
    total = parts[0].coeffs + parts[1].coeffs + parts[2].coeffs
    np.testing.assert_array_equal(total, u.coeffs)
    # a single plus mode has empty kernel projection
    one = SpectralField.zeros(circle_beam_cat)
    one.coeffs[circle_beam_cat.plus_idx[0]] = 2.0
    assert np.all(project(one, "zero").coeffs == 0.0)


def test_project_idempotent_and_orthogonal(circle_beam_cat):
    rng = np.random.default_rng(1)
    u, v = random_field(circle_beam_cat, rng), random_field(circle_beam_cat, rng)
    pu = project(u, "plus")
    np.testing.assert_array_equal(project(pu, "plus").coeffs, pu.coeffs)
    assert float(project(u, "plus").coeffs @ project(v, "minus").coeffs) == 0.0


def test_project_keeps_resonant_mode():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 2, 2)
    u = SpectralField.zeros(cat)
    u.coeffs[cat.modes.index(ModeKey((1,), 1))] = 3.0  # lambda = 1 - 1 = 0
    np.testing.assert_array_equal(project(u, "zero").coeffs, u.coeffs)


def test_energy_norms_single_and_multi_mode():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 3, 4)
    u = SpectralField.zeros(cat)
    u.coeffs[cat.modes.index(ModeKey((3,), 2))] = 1.0  # lambda = 9 - 4 = 5
    plus, minus, l2 = energy_norms(u)
    assert plus == pytest.approx(math.sqrt(5.0), abs=1e-15)
    assert minus == 0.0
    assert l2 == 1.0

    kern = SpectralField.zeros(cat)
    kern.coeffs[cat.modes.index(ModeKey((2,), 2))] = 7.0  # lambda = 0
    plus, minus, _ = energy_norms(kern)
    assert plus == 0.0 and minus == 0.0

    two = SpectralField.zeros(cat)
    two.coeffs[cat.modes.index(ModeKey((0,), 1))] = 1.0  # lambda = -1
    two.coeffs[cat.modes.index(ModeKey((0,), 2))] = 1.0  # lambda = -4
    assert energy_norms(two)[1] == pytest.approx(math.sqrt(5.0), abs=1e-15)


def test_synthesize_constant_mode(circle_beam_cat):
    grid = ProductGrid.for_catalog(circle_beam_cat)
    u = SpectralField.zeros(circle_beam_cat)
    u.coeffs[circle_beam_cat.modes.index(ModeKey((0,), 0))] = 1.0
    np.testing.assert_allclose(synthesize(u, grid), 1.0 / TWO_PI, rtol=1e-14)


def test_synthesize_cos_cos_pointwise(circle_beam_cat):
    grid = ProductGrid.for_catalog(circle_beam_cat)
    u = SpectralField.zeros(circle_beam_cat)
    u.coeffs[circle_beam_cat.modes.index(ModeKey((1,), 1))] = np.pi
    vals = synthesize(u, grid).reshape(grid.nx, grid.nt)
    oracle = np.outer(np.cos(grid.x_nodes), np.cos(grid.t_nodes))
    np.testing.assert_allclose(vals, oracle, atol=1e-13)


def test_axis_order_on_a_non_square_t2_against_closed_forms():
    # K != L and nx != nt, so a swapped or misplaced axis changes both values
    cat = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 2, 3)
    grid = ProductGrid.for_catalog(cat)
    assert grid.shape == (12, 12, 16)
    x1, x2, t = grid.meshgrid()
    u = SpectralField.zeros(cat)
    u.coeffs[cat.modes.index(ModeKey((1, -2), 3))] = 1.0
    oracle = np.cos(x1) * np.sin(2 * x2) * np.cos(3 * t) / np.pi**1.5
    np.testing.assert_allclose(synthesize(u, grid), oracle, rtol=0, atol=1e-14)

    q = weight_rectangle(grid, (0.5, 2.5), (1.0, 4.0), inside=2.0, outside=0.5, smoothing=0.0)
    box = q.values.reshape(grid.shape)
    bump = ((0.5 <= x1) & (x1 <= 2.5) & (1.0 <= t) & (t <= 4.0)).reshape(grid.shape)
    np.testing.assert_array_equal(box, np.where(bump, 2.0, 0.5))
    assert np.all(box == box[:, :1, :])  # constant along x_2


def test_round_trip_torus(torus2_cat):
    grid = ProductGrid.for_catalog(torus2_cat)
    rng = np.random.default_rng(2)
    u = random_field(torus2_cat, rng)
    back = analyze(synthesize(u, grid), torus2_cat, grid)
    np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-12)


def test_analyze_zero_and_unit_modes(circle_beam_cat):
    grid = ProductGrid.for_catalog(circle_beam_cat)
    z = analyze(np.zeros(grid.n_points), circle_beam_cat, grid)
    assert np.all(z.coeffs == 0.0)
    one = SpectralField.zeros(circle_beam_cat)
    i = circle_beam_cat.modes.index(ModeKey((-2,), -3))
    one.coeffs[i] = 1.0
    got = analyze(synthesize(one, grid), circle_beam_cat, grid)
    assert got.coeffs[i] == pytest.approx(1.0, abs=1e-12)
    rest = np.delete(got.coeffs, i)
    assert np.max(np.abs(rest)) <= 1e-12


def test_analyze_mode_outside_cutoff_is_invisible():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 1, 1)
    grid = ProductGrid(1, 12, 12)  # resolves cos(2x) exactly, no aliasing into K<=1
    xs, ts = np.meshgrid(grid.x_nodes, grid.t_nodes, indexing="ij")
    vals = np.cos(2 * xs).ravel()
    got = analyze(vals, cat, grid)
    assert np.max(np.abs(got.coeffs)) <= 1e-13


def test_wave_apply_kernel_annihilation(circle_wave_cat):
    rng = np.random.default_rng(3)
    lam = circle_wave_cat.eig  # the wave operator acts diagonally: lam * coeffs
    u = random_field(circle_wave_cat, rng)
    ker = project(u, "zero")
    assert np.all(lam * ker.coeffs == 0.0)
    out = lam * u.coeffs
    # annihilates exactly the kernel class and only it
    nonzero_classes = circle_wave_cat.classes[np.abs(out) > 0]
    assert 0 not in nonzero_classes
    single = SpectralField.zeros(circle_wave_cat)
    i = circle_wave_cat.modes.index(ModeKey((3,), 2))
    single.coeffs[i] = 2.0
    assert (lam * single.coeffs)[i] == pytest.approx(10.0)


def test_wave_apply_matches_signed_quadratic_forms(circle_wave_cat):
    rng = np.random.default_rng(4)
    lam = circle_wave_cat.eig
    for _ in range(10):
        u, v = random_field(circle_wave_cat, rng), random_field(circle_wave_cat, rng)
        lhs = float((lam * u.coeffs) @ v.coeffs)
        up, vp = project(u, "plus").coeffs, project(v, "plus").coeffs
        um, vm = project(u, "minus").coeffs, project(v, "minus").coeffs
        rhs = float(np.sum(lam[lam > 0] * (up * vp)[lam > 0])) - float(
            np.sum(-lam[lam < 0] * (um * vm)[lam < 0])
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_weight_rectangle_rejects_a_negative_smoothing(circle_beam_cat):
    grid = ProductGrid.for_catalog(circle_beam_cat)
    with pytest.raises(ValueError, match="smoothing must be non-negative"):
        weight_rectangle(grid, (0.0, 3.0), (0.0, 3.0), smoothing=-0.5)
    assert np.all(np.isin(weight_rectangle(grid, (0.0, 3.0), (0.0, 3.0), smoothing=0.0).values,
                          (0.0, 1.0)))


def test_parseval(circle_beam_cat):
    grid = ProductGrid.for_catalog(circle_beam_cat, oversample=3)
    rng = np.random.default_rng(5)
    u = random_field(circle_beam_cat, rng)
    _, _, l2 = energy_norms(u)
    quad = float(np.sum(synthesize(u, grid) ** 2)) * grid.quad_weight
    assert quad == pytest.approx(l2**2, rel=1e-10)


def test_norm_zero_closed_forms(circle_wave_cat):
    grid = ProductGrid.for_catalog(circle_wave_cat)
    q = WeightField.constant(grid)
    # no kernel component -> 0
    u = SpectralField.zeros(circle_wave_cat)
    u.coeffs[circle_wave_cat.plus_idx[0]] = 1.0
    assert norm_zero(u, q, 4.0) == 0.0
    # constant kernel field with pointwise value a
    a = 0.7
    c = SpectralField.zeros(circle_wave_cat)
    c.coeffs[circle_wave_cat.modes.index(ModeKey((0,), 0))] = TWO_PI * a
    expect = (TWO_PI**2 * a**4) ** 0.25
    assert norm_zero(c, q, 4.0) == pytest.approx(expect, rel=1e-12)
    # weight vanishing on the support kills the norm
    qz = WeightField(grid, np.zeros(grid.n_points))
    assert norm_zero(c, qz, 4.0) == 0.0


def test_grid_compliance_errors(circle_beam_cat):
    with pytest.raises(ValueError):
        synthesize(SpectralField.zeros(circle_beam_cat), ProductGrid(1, 6, 6))
    with pytest.raises(ValueError):
        ProductGrid.for_catalog(
            build_catalog(DomainSpec.sphere(2), OperatorSpec.laplacian_power(2), 2, 2)
        )


@pytest.mark.parametrize("dims, k_max, l_max", [(1, 8, 8), (2, 3, 3), (3, 2, 2), (2, 3, 1)])
def test_transforms_match_mode_by_mode_table(dims, k_max, l_max):
    # basis_rows builds each mode's values as an outer product of its circle
    # factors, independently of the sum-factorized contraction; unequal
    # cutoffs catch a mixed-up axis order
    cat = build_catalog(DomainSpec.torus(dims), OperatorSpec.laplacian_power(2), k_max, l_max)
    grid = ProductGrid.for_catalog(cat)
    rows = basis_rows(cat, grid, np.arange(cat.size))
    rng = np.random.default_rng(dims)
    u = random_field(cat, rng)
    values = rng.standard_normal(grid.n_points)
    np.testing.assert_allclose(synthesize(u, grid), u.coeffs @ rows, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        analyze(values, cat, grid).coeffs, rows @ values * grid.quad_weight, rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("cutoff", [1, 8, 48])
def test_axis_table_is_twice_the_real_part_of_the_amplitudes(cutoff):
    nodes = TWO_PI * np.arange(2 * cutoff + 2) / (2 * cutoff + 2)
    signed = np.arange(-cutoff, cutoff + 1)
    phases = np.exp(1j * np.abs(signed)[:, None] * nodes)
    expected = 2 * (axis_amplitudes(signed)[:, None] * phases).real
    np.testing.assert_allclose(_axis_table(cutoff, nodes), expected, rtol=0, atol=1e-15)


def test_round_trip_beyond_old_table_cap():
    # 4,913 modes x 46,656 points: a dense table would hold 229M entries
    cat = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    u = random_field(cat, np.random.default_rng(3))
    back = analyze(synthesize(u, grid), cat, grid)
    np.testing.assert_allclose(back.coeffs, u.coeffs, rtol=0, atol=1e-12)


def test_weight_field_validation():
    grid = ProductGrid(1, 8, 8)
    with pytest.raises(ValueError):
        WeightField(grid, -np.ones(grid.n_points))
    w = WeightField.constant(grid, 0.0)
    assert w.is_trivial()


@pytest.mark.parametrize("call, message", [
    (lambda cat, grid: SpectralField(cat, np.zeros(cat.size - 1)),
     "coefficient count (80,) does not match catalog size 81"),
    (lambda cat, grid: SpectralField(cat, np.full(cat.size, np.nan)), "coefficients must be finite"),
    (lambda cat, grid: WeightField(grid, np.ones(grid.n_points + 1)),
     "weight values do not match grid point count"),
    (lambda cat, grid: analyze(np.zeros(grid.n_points - 1), cat, grid),
     "value array does not match grid"),
    (lambda cat, grid: ProductGrid(1, 1, 8), "need at least two points per axis"),
    (lambda cat, grid: ProductGrid(2, 8, 1), "need at least two points per axis"),
    (lambda cat, grid: ProductGrid.for_catalog(cat, oversample=0), "oversample must be >= 1"),
    (lambda cat, grid: norm_zero(SpectralField.zeros(cat), WeightField.constant(grid), 2.0),
     "norm_zero needs p > 2"),
], ids=["field-length", "field-nan", "weight-length", "analyze-length", "grid-nx-1", "grid-nt-1",
        "oversample-0", "norm-zero-p-2"])
def test_input_checks_name_the_fault(circle_beam_cat, call, message):
    grid = ProductGrid.for_catalog(circle_beam_cat)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(circle_beam_cat, grid)


def test_support_hull_is_the_product_of_the_per_axis_supports():
    grid = ProductGrid(2, 6, 4)  # shape (6, 6, 4)
    values = np.zeros(grid.shape)
    values[1, 2, 3], values[4, 2, 0] = 1.0, 2.0
    masks = WeightField(grid, values).support_hull()
    assert [np.flatnonzero(m).tolist() for m in masks] == [[1, 4], [2], [0, 3]]
    assert WeightField.constant(grid).support_hull() is None
    assert WeightField.constant(grid, 0.0).support_hull() is None  # no hull to restrict to


def test_weight_rectangle_ramp():
    grid = ProductGrid(1, 64, 64)
    q = weight_rectangle(grid, (0.0, np.pi), (0.0, TWO_PI), inside=2.0, smoothing=0.2)
    vals = q.values.reshape(64, 64)
    assert vals.max() == pytest.approx(2.0)
    assert vals.min() == 0.0
    x = grid.x_nodes
    deep_inside = (x > 0.4) & (x < np.pi - 0.4)
    assert np.all(vals[deep_inside, :] == pytest.approx(2.0))


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("x_span, t_span, inside, outside, smoothing", [
    ((0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1),
    ((5.0, 8.0), (1.0, 2.0), 1e6, 0.3, 0.0),
    ((0.1, 2.0), (-1.0, 3.0), 2.0, 0.0, 0.5),
])
def test_weight_rectangle_is_the_full_grid_formula(dims, x_span, t_span, inside, outside,
                                                   smoothing):
    # the (x_1, t) plane broadcast over the other axes gives the values of the
    # formula evaluated on every grid point, bit for bit
    grid = ProductGrid(dims, 20, 24)
    coords = grid.meshgrid()
    bump = (_smooth_indicator(coords[0], *arc("x", x_span), smoothing)
            * _smooth_indicator(coords[-1], *arc("t", t_span), smoothing))
    q = weight_rectangle(grid, x_span, t_span, inside, outside, smoothing)
    assert q.values.tobytes() == (outside + (inside - outside) * bump).tobytes()


def test_weight_rectangle_allocates_no_full_grid_temporaries():
    grid = ProductGrid(3, 20, 20)  # the T^3 grid of K = L = 4
    tracemalloc.start()
    try:
        q = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * q.values.nbytes


def test_field_json_and_csv(tmp_path, circle_beam_cat):
    grid = ProductGrid.for_catalog(circle_beam_cat)
    rng = np.random.default_rng(7)
    u = random_field(circle_beam_cat, rng)
    doc = u.to_json()
    assert doc["catalog"] == circle_beam_cat.digest
    assert len(doc["coefficients"]) == circle_beam_cat.size
    from wavegs import field_to_csv

    path = tmp_path / "field.csv"
    field_to_csv(u, grid, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (grid.n_points, 3)
    np.testing.assert_allclose(data[:, 2], synthesize(u, grid), atol=1e-12)
