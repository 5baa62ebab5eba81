import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wavegs import (
    DomainSpec,
    ModeKey,
    OperatorSpec,
    ProductGrid,
    RasterSet,
    SpectralField,
    WeightField,
    build_catalog,
    dalembert_split,
    kernel_gram,
    rectangle_margin,
    slice_profiles,
    synthesize,
    weight_rectangle,
    xi_eta_infimum,
)
from wavegs import control

TWO_PI = 2 * np.pi


def test_gram_identity_for_unit_weight(circle_wave_cat):
    grid = ProductGrid.for_catalog(circle_wave_cat)
    rep = kernel_gram(WeightField.constant(grid), circle_wave_cat, grid)
    assert rep.dim == circle_wave_cat.kernel_dim() == 33
    np.testing.assert_allclose(rep.gram, np.eye(rep.dim), atol=1e-10)
    assert rep.eig_min == pytest.approx(1.0, abs=1e-10)
    assert rep.constant == pytest.approx(1.0, abs=1e-10)
    assert rep.below_floor == []


def test_gram_scales_with_constant_weight(circle_wave_cat):
    grid = ProductGrid.for_catalog(circle_wave_cat)
    alpha = 0.25
    rep = kernel_gram(WeightField.constant(grid, alpha), circle_wave_cat, grid)
    assert rep.eig_min == pytest.approx(alpha, rel=1e-12)
    assert rep.constant == pytest.approx(1.0 / alpha, rel=1e-12)


def test_gram_empty_kernel_convention():
    from fractions import Fraction

    cat = build_catalog(DomainSpec.circle(), OperatorSpec((Fraction(1, 2), 1)), 2, 2)
    grid = ProductGrid.for_catalog(cat)
    rep = kernel_gram(WeightField.constant(grid), cat, grid)
    assert rep.dim == 0
    assert rep.constant == 0.0
    assert rep.basis.shape == (0, 0)


def test_gram_cutoff_decay_recorded():
    # quarter-square weight: margin is negative, mu_min decays with the cutoff
    mus = []
    for K in (4, 8, 16):
        cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), K, K)
        grid = ProductGrid(1, 128, 128)
        q = weight_rectangle(grid, (0.0, np.pi / 2), (0.0, np.pi / 2), smoothing=0.1)
        mus.append(kernel_gram(q, cat, grid).eig_min)
    # nested kernels: mu_min nonincreasing, nonnegative up to quadrature roundoff
    assert mus[0] >= mus[1] >= mus[2] >= -1e-12
    assert rectangle_margin(0.0, np.pi / 2, 0.0, np.pi / 2) < 0


def test_gram_positive_margin_is_cutoff_stable():
    # rectangle margin pi inside {q >= 1}: mu_min stays within a factor 2 across cutoffs
    mus = []
    for K in (8, 16):
        cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), K, K)
        grid = ProductGrid(1, 128, 128)
        q = weight_rectangle(grid, (0.0, 1.5 * np.pi), (0.0, 1.5 * np.pi), smoothing=0.1)
        mus.append(kernel_gram(q, cat, grid).eig_min)
    assert rectangle_margin(0.0, 1.5 * np.pi, 0.0, 1.5 * np.pi) == pytest.approx(np.pi)
    assert mus[1] > 0
    assert mus[1] >= mus[0] / 2.0


def test_gram_open_set_weight_on_t2_biharmonic_stays_positive():
    # any open set controls the biharmonic kernel on T^2: mu_min > 0 at desk cutoffs
    cat = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 4, 16)
    grid = ProductGrid(2, 12, 64)
    q = weight_rectangle(grid, (0.5, 2.5), (0.5, 2.5), smoothing=0.2)
    rep = kernel_gram(q, cat, grid)
    assert rep.dim > 0
    assert rep.eig_min > 0


def test_gram_open_set_weight_on_circle_power_stays_positive():
    # same expectation for (-Laplace)^m on the circle, m >= 2
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(3), 4, 64)
    grid = ProductGrid(1, 16, 256)
    q = weight_rectangle(grid, (1.0, 2.0), (3.0, 4.5), smoothing=0.2)
    rep = kernel_gram(q, cat, grid)
    assert rep.eig_min > 0


def test_gram_near_singular_is_reported_not_raised(circle_wave_cat):
    grid = ProductGrid.for_catalog(circle_wave_cat)
    q = WeightField(grid, np.zeros(grid.n_points))
    rep = kernel_gram(q, circle_wave_cat, grid)
    assert rep.eig_min == pytest.approx(0.0, abs=1e-15)
    assert math.isinf(rep.constant)
    assert len(rep.below_floor) == rep.dim


def test_gram_basis_drops_exactly_the_reported_directions(monkeypatch):
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 6, 6)
    grid = ProductGrid.for_catalog(cat)
    q = weight_rectangle(grid, (0.0, 1.0), (0.0, 1.0), 1.0, 0.0, 0.1)
    # a floor high enough to drop some directions of this small kernel
    monkeypatch.setattr(control, "REL_FLOOR", 1e-3)
    rep = kernel_gram(q, cat, grid)
    assert (rep.dim, len(rep.below_floor)) == (25, 16)
    assert "basis" not in rep.to_json()
    assert "basis" not in vars(rep)  # a report holds its basis only once it is read
    # the kept basis is the columns of eigh(gram) after the leading below-floor ones
    eigvecs = np.linalg.eigh(rep.gram)[1]
    kept = rep.basis
    np.testing.assert_array_equal(kept, eigvecs[:, len(rep.below_floor):])
    assert kept.shape == (25, 9)
    assert rep.below_floor == list(range(16))
    np.testing.assert_allclose(kept.T @ kept, np.eye(9), atol=1e-12)
    dropped = eigvecs[:, rep.below_floor]
    assert np.abs(dropped.T @ rep.gram @ dropped).max() <= rep.floor * rep.eig_max
    restricted = kept.T @ rep.gram @ kept
    np.testing.assert_allclose(restricted, np.diag(np.diag(restricted)), atol=1e-12)
    assert np.diag(restricted).min() > rep.floor * rep.eig_max


def test_gram_rejects_sphere_catalogs(sphere_kg_cat):
    grid = ProductGrid(1, 64, 64)
    with pytest.raises(ValueError):
        kernel_gram(WeightField.constant(grid), sphere_kg_cat, grid)


def test_dalembert_cos_cos(circle_wave_cat):
    u = SpectralField.zeros(circle_wave_cat)
    u.coeffs[circle_wave_cat.modes.index(ModeKey((1,), 1))] = np.pi  # cos(x)cos(t)
    phi, psi = dalembert_split(u)
    assert phi.const == 0.0 and psi.const == 0.0
    assert phi.cos[0] == pytest.approx(0.5)
    assert psi.cos[0] == pytest.approx(0.5)
    assert np.max(np.abs(phi.sin)) == 0.0


def test_dalembert_sin_cos(circle_wave_cat):
    u = SpectralField.zeros(circle_wave_cat)
    u.coeffs[circle_wave_cat.modes.index(ModeKey((-1,), 1))] = np.pi  # sin(x)cos(t)
    phi, psi = dalembert_split(u)
    assert phi.sin[0] == pytest.approx(0.5)
    assert psi.sin[0] == pytest.approx(0.5)


def test_dalembert_reconstruction_random(circle_wave_cat):
    grid = ProductGrid.for_catalog(circle_wave_cat)
    xs, ts = np.meshgrid(grid.x_nodes, grid.t_nodes, indexing="ij")
    rng = np.random.default_rng(31)
    for _ in range(5):
        coeffs = np.zeros(circle_wave_cat.size)
        coeffs[circle_wave_cat.zero_idx] = rng.standard_normal(circle_wave_cat.kernel_dim())
        u = SpectralField(circle_wave_cat, coeffs)
        phi, psi = dalembert_split(u)
        recon = phi(xs + ts) + psi(xs - ts)
        assert np.max(np.abs(recon.ravel() - synthesize(u, grid))) < 1e-10


def test_dalembert_rejects_non_kernel_and_wrong_operator(circle_wave_cat, circle_beam_cat):
    u = SpectralField.zeros(circle_wave_cat)
    u.coeffs[circle_wave_cat.plus_idx[0]] = 1.0
    with pytest.raises(ValueError):
        dalembert_split(u)
    with pytest.raises(ValueError):
        dalembert_split(SpectralField.zeros(circle_beam_cat))


def test_slice_infima_strip():
    omega = RasterSet.rectangle((0.0, np.pi), (0.0, TWO_PI), 256)
    inf_a, inf_b = xi_eta_infimum(omega)
    cell = TWO_PI / 256
    assert abs(inf_a - np.pi) <= cell
    assert abs(inf_b - np.pi) <= cell


def test_slice_infima_full_and_empty():
    assert xi_eta_infimum(RasterSet.full(128)) == (TWO_PI, TWO_PI)
    assert xi_eta_infimum(RasterSet(np.zeros((128, 128)))) == (0.0, 0.0)


def test_slice_resolution_floor():
    with pytest.raises(ValueError):
        xi_eta_infimum(RasterSet.full(32))


def test_positive_margin_rectangle_has_positive_slices():
    omega = RasterSet.rectangle((0.0, 1.5 * np.pi), (0.0, 1.5 * np.pi), 256)
    inf_a, inf_b = xi_eta_infimum(omega)
    assert inf_a > 0 and inf_b > 0


def test_slice_profiles_export_shape():
    omega = RasterSet.rectangle((0.0, np.pi), (0.5, 2.0), 128)
    offsets, meas_a, meas_b = slice_profiles(omega)
    assert len(offsets) == len(meas_a) == len(meas_b) == 128
    assert np.all(meas_a >= 0) and np.all(meas_b >= 0)


def test_rectangle_margin_values():
    assert rectangle_margin(0, 1.5 * np.pi, 0, 1.5 * np.pi) == pytest.approx(np.pi)
    eps = 0.3
    assert rectangle_margin(0.0, eps, 0.0, TWO_PI) == pytest.approx(eps)  # omega x S^1
    assert rectangle_margin(0.0, np.pi, 0.0, np.pi) == pytest.approx(0.0)  # boundary case


def test_rectangle_margin_rejects_malformed():
    with pytest.raises(ValueError):
        rectangle_margin(1.0, 0.5, 0.0, 1.0)
    assert rectangle_margin(0.0, 7.0, 0.0, 1.0) == pytest.approx(1.0)


@given(
    st.floats(0.0, 2.0),
    st.floats(2.1, TWO_PI),
    st.floats(0.0, 2.0),
    st.floats(2.1, TWO_PI),
)
@example(1e-12, TWO_PI, 0.0, 3.0)
def test_rectangle_margin_formula(a1, b1, a2, b2):
    # the documented rule: a side of at least 2 pi (1 - 1e-12) is the whole circle
    def side(a, b):
        return TWO_PI if b - a >= TWO_PI * (1 - 1e-12) else b - a

    assert rectangle_margin(a1, b1, a2, b2) == pytest.approx(
        side(a1, b1) + side(a2, b2) - TWO_PI, abs=1e-12
    )


@pytest.mark.parametrize("x_span, t_span, side", [((1.0, 0.5), (0.0, 1.0), "x"),
                                                  ((0.0, 7.0), (3.0, -1.0), "t")])
@pytest.mark.parametrize("read", [
    lambda x, t: weight_rectangle(ProductGrid(1, 8, 8), x, t),
    lambda x, t: RasterSet.rectangle(x, t, 64),
    lambda x, t: rectangle_margin(*x, *t),
], ids=["weight", "raster", "margin"])
def test_every_rectangle_reader_refuses_a_reversed_side(read, x_span, t_span, side):
    with pytest.raises(ValueError, match=f"^malformed rectangle: need a_i <= b_i, but {side} "):
        read(x_span, t_span)


_SIDE = st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 8.0)).map(lambda s: (s[0], s[0] + s[1]))


@given(_SIDE, _SIDE, st.sampled_from([16, 64]))
def test_weight_and_raster_read_a_rectangle_alike(x_span, t_span, resolution):
    # the odd nodes of a 2R grid are the centres of the R raster cells
    grid = ProductGrid(1, 2 * resolution, 2 * resolution)
    q = weight_rectangle(grid, x_span, t_span, smoothing=0.0).values.reshape(grid.nx, grid.nt)
    mask = RasterSet.rectangle(x_span, t_span, resolution).mask
    np.testing.assert_array_equal(q[1::2, 1::2] > 0, mask == 1)


def test_raster_from_weight():
    grid = ProductGrid(1, 128, 128)
    q = weight_rectangle(grid, (0.0, np.pi), (0.0, TWO_PI), smoothing=0.0)
    omega = RasterSet.from_weight(WeightField(grid, q.values), resolution=128)
    assert omega.resolution == 128
    inf_a, _ = xi_eta_infimum(omega)
    assert inf_a > 2.5  # roughly the strip width
