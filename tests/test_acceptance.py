"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the [PASS]/[FAIL]
lines; runtime budgets are annotated per criterion.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from wavegs import (
    DomainSpec,
    EnergyContext,
    ModeKey,
    NonlinearitySpec,
    OperatorSpec,
    ProductGrid,
    RasterSet,
    SolverConfig,
    SpectralField,
    WeightField,
    build_catalog,
    dalembert_split,
    energy_norms,
    gap_ratio_bracket,
    ground_state,
    kernel_gram,
    phi_eval,
    phi_gradient,
    project,
    rectangle_margin,
    residual_dual_norm,
    sphere_embedding_series,
    synthesize,
    torus_gap_series,
    wave_apply,
    weight_rectangle,
    xi_eta_infimum,
)
from wavegs import saddle

TWO_PI = 2 * np.pi


def report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{tag}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def beam_solution():
    """Shared beam-operator ground state: S^1 x S^1, P = tau^2, q = 1, p = 4, K = L = 8."""
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    ctx = EnergyContext(cat, grid, WeightField.constant(grid), NonlinearitySpec.pure_power(4))
    cfg = SolverConfig(n_starts=3, seed=0)
    result = ground_state(ctx, cfg)
    return cat, grid, ctx, cfg, result


def test_criterion_1_spectral_consistency():
    t0 = time.time()
    presets = [
        build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 6, 6),
        build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(1), 3, 3),
        build_catalog(DomainSpec.sphere(3), OperatorSpec.klein_gordon(3), 5, 5),
    ]
    rng = np.random.default_rng(101)
    worst = 0.0
    for cat in presets:
        lam = cat.eig
        for _ in range(20):
            u = SpectralField(cat, rng.standard_normal(cat.size))
            v = SpectralField(cat, rng.standard_normal(cat.size))
            lhs = float(wave_apply(u).coeffs @ v.coeffs)
            up, vp = project(u, "plus").coeffs, project(v, "plus").coeffs
            um, vm = project(u, "minus").coeffs, project(v, "minus").coeffs
            rhs = float(np.sum(np.where(lam > 0, lam, 0.0) * up * vp)) - float(
                np.sum(np.where(lam < 0, -lam, 0.0) * um * vm)
            )
            scale = max(abs(lhs), abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
    report(1, worst <= 1e-10, f"signed-form identity, worst rel err {worst:.2e} (<= 1e-10), {time.time()-t0:.2f}s")


def test_criterion_2_gradient_fidelity():
    t0 = time.time()
    terms = ((1.0, 3.0), (0.5, 4.0))
    setups = []
    cat1 = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 4, 4)
    g1 = ProductGrid.for_catalog(cat1)
    setups.append(EnergyContext(cat1, g1, weight_rectangle(g1, (0.5, 5.5), (0.0, TWO_PI)),
                                NonlinearitySpec(terms)))
    cat2 = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 2, 2)
    g2 = ProductGrid.for_catalog(cat2)
    setups.append(EnergyContext(cat2, g2, WeightField.constant(g2), NonlinearitySpec(terms)))
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = 0.0
    for ctx in setups:
        cat = ctx.catalog
        for _ in range(10):
            u = SpectralField(cat, 0.5 * rng.standard_normal(cat.size))
            v = SpectralField(cat, rng.standard_normal(cat.size))
            up = SpectralField(cat, u.coeffs + h * v.coeffs)
            dn = SpectralField(cat, u.coeffs - h * v.coeffs)
            fd = (phi_eval(up, ctx) - phi_eval(dn, ctx)) / (2 * h)
            an = float(phi_gradient(u, ctx).coeffs @ v.coeffs)
            worst = max(worst, abs(an - fd) / max(abs(fd), abs(an)))
    report(2, worst < 1e-5, f"gradient vs central differences, worst rel err {worst:.2e} (< 1e-5), {time.time()-t0:.2f}s")


def test_criterion_3_closed_form_critical_point():
    t0 = time.time()
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((Fraction(1, 2), 1)), 4, 4)
    grid = ProductGrid.for_catalog(cat)
    ctx = EnergyContext(cat, grid, WeightField.constant(grid), NonlinearitySpec.pure_power(4))
    u = SpectralField.zeros(cat)
    u.coeffs[cat.index_of(ModeKey((0,), 0))] = TWO_PI * math.sqrt(0.5)
    residual = residual_dual_norm(phi_gradient(u, ctx))
    const_energy = phi_eval(u, ctx)
    result = ground_state(ctx, SolverConfig(n_starts=2, seed=0))
    ok = residual < 1e-8 and result.energy <= const_energy + 1e-6
    report(3, ok, f"constant-state residual {residual:.2e} (< 1e-8), solver c {result.energy:.6f} <= {const_energy:.6f} + 1e-6, {time.time()-t0:.2f}s")


def test_criterion_4_toy_minimax():
    t0 = time.time()
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 0, 0)
    grid = ProductGrid(1, 4, 4)
    ctx = EnergyContext(cat, grid, WeightField.constant(grid), NonlinearitySpec.pure_power(4))
    result = ground_state(ctx, SolverConfig(n_starts=1, seed=0))
    c_err = abs(result.energy - math.pi**2)
    s_err = abs(result.s_w - TWO_PI)
    ok = c_err <= 1e-6 and s_err <= 1e-4
    report(4, ok, f"1-mode oracle: |c - pi^2| = {c_err:.2e} (<= 1e-6), |s_w - 2pi| = {s_err:.2e} (<= 1e-4), {time.time()-t0:.2f}s")


def test_criterion_5_scaling_law(beam_solution):
    t0 = time.time()
    cat, grid, ctx, cfg, base = beam_solution
    worst = 0.0
    for alpha in (0.5, 2.0):
        ctx_a = EnergyContext(cat, grid, WeightField.constant(grid, alpha), ctx.nonlinearity)
        res_a = ground_state(ctx_a, cfg)
        expected = alpha ** (-2.0 / (4.0 - 2.0)) * base.energy
        worst = max(worst, abs(res_a.energy - expected) / expected)
    report(5, worst <= 1e-4, f"c(alpha q) scaling, worst rel err {worst:.2e} (<= 1e-4), {time.time()-t0:.1f}s")


def test_criterion_6_nehari_pankov_membership(beam_solution):
    t0 = time.time()
    cat, grid, ctx, cfg, result = beam_solution
    g = phi_gradient(result.u_star, ctx).coeffs
    wp = result.u_star.coeffs[cat.plus_idx] / result.s_w
    t_dir = abs(float(g[cat.plus_idx] @ wp))
    off = np.concatenate([g[cat.zero_idx], g[cat.minus_idx]])
    bound = 10 * saddle.TOL_INNER
    derivative_ok = t_dir <= bound and float(np.max(np.abs(off), initial=0.0)) <= bound

    rng = np.random.default_rng(606)
    base = phi_eval(result.u_star, ctx)
    sample_max = -math.inf
    for _ in range(100):
        pert = np.zeros(cat.size)
        pert[cat.plus_idx] = rng.uniform(0.1, 3.0) * result.s_w * wp
        pert[cat.zero_idx] = rng.uniform(0.0, 3.0) * rng.standard_normal(len(cat.zero_idx))
        pert[cat.minus_idx] = rng.uniform(0.0, 3.0) * rng.standard_normal(len(cat.minus_idx))
        sample_max = max(sample_max, phi_eval(SpectralField(cat, pert), ctx))
    sampling_ok = sample_max <= base + 1e-9
    report(6, derivative_ok and sampling_ok,
           f"NP derivative bound {max(t_dir, float(np.max(np.abs(off), initial=0.0))):.2e} (<= {bound:.0e}), "
           f"max sampled Phi {sample_max:.2f} <= {base:.4f}, {time.time()-t0:.1f}s")


def test_criterion_7_control_diagnostics():
    t0 = time.time()
    cat8 = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 8, 8)
    grid8 = ProductGrid.for_catalog(cat8)
    rep = kernel_gram(WeightField.constant(grid8), cat8, grid8)
    identity_ok = float(np.max(np.abs(rep.gram - np.eye(rep.dim)))) <= 1e-10

    mus = []
    for K in (8, 16):
        cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), K, K)
        grid = ProductGrid(1, 128, 128)
        q = weight_rectangle(grid, (0.0, 1.5 * np.pi), (0.0, 1.5 * np.pi), smoothing=0.1)
        mus.append(kernel_gram(q, cat, grid).eig_min)
    assert rectangle_margin(0.0, 1.5 * np.pi, 0.0, 1.5 * np.pi) == pytest.approx(np.pi)
    stable_ok = mus[1] > 0 and mus[1] >= mus[0] / 2.0

    omega = RasterSet.rectangle((0.0, np.pi), (0.0, TWO_PI), 256)
    inf_a, inf_b = xi_eta_infimum(omega)
    cell = TWO_PI / 256
    slice_ok = abs(inf_a - np.pi) <= cell and abs(inf_b - np.pi) <= cell
    report(7, identity_ok and stable_ok and slice_ok,
           f"gram identity, mu_min {mus[0]:.4f}->{mus[1]:.4f} (factor {mus[0]/mus[1]:.2f} <= 2), "
           f"strip slices ({inf_a:.4f}, {inf_b:.4f}) = pi +- {cell:.4f}, {time.time()-t0:.1f}s")


def test_criterion_8_embedding_series():
    t0 = time.time()
    rep_a = torus_gap_series(2, 1, 3.0)
    a_ok = rep_a.verdict == "diverges" and all(w["lambda"] == 1 for w in rep_a.witness)

    rep_b = sphere_embedding_series(3, 1, 3.0, operator="klein_gordon")
    slope_target = -2.0 + (3 + 1) * (3.0 - 2.0) / (2.0 * 3.0)
    b_ok = abs(rep_b.tail_exponent - slope_target) <= 0.15

    brackets = {}
    c_ok = True
    for N, m in ((2, 2), (3, 2)):
        lo, hi = gap_ratio_bracket(N, m, l_max=10000)
        brackets[(N, m)] = (lo, hi)
        c_ok = c_ok and lo >= 0.1 and hi <= 10.0
    report(8, a_ok and b_ok and c_ok,
           f"(a) witness divergence {rep_a.verdict}; (b) KG slope {rep_b.tail_exponent:.3f} "
           f"vs {slope_target:.3f} +- 0.15; (c) brackets {brackets} in [0.1, 10], {time.time()-t0:.1f}s")


def test_criterion_9_dalembert_split():
    t0 = time.time()
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    xs, ts = np.meshgrid(grid.x_nodes, grid.t_nodes, indexing="ij")
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        coeffs = np.zeros(cat.size)
        coeffs[cat.zero_idx] = rng.standard_normal(cat.kernel_dim())
        u = SpectralField(cat, coeffs)
        phi, psi = dalembert_split(u)
        recon = phi(xs + ts) + psi(xs - ts)
        worst = max(worst, float(np.max(np.abs(recon.ravel() - synthesize(u, grid)))))
    cc = SpectralField.zeros(cat)
    cc.coeffs[cat.index_of(ModeKey((1,), 1))] = np.pi
    phi, psi = dalembert_split(cc)
    even_ok = phi.cos[0] == pytest.approx(0.5) and psi.cos[0] == pytest.approx(0.5)
    report(9, worst < 1e-10 and even_ok,
           f"20 random kernel reconstructions, worst err {worst:.2e} (< 1e-10); cos-cos splits evenly, {time.time()-t0:.2f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    from wavegs.cli import main

    doc = {
        "task": "solve",
        "domain": {"kind": "circle"},
        "operator": {"power": 2},
        "cutoffs": {"k_max": 3, "l_max": 3},
        "nonlinearity": {"terms": [[1.0, 4.0]]},
        "weight": {"kind": "constant", "value": 1.0},
        "solver": {"starts": 2},
        "seed": 7,
        "out": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    snapshots = []
    for _ in range(2):
        assert main(["solve", "--config", str(cfg_path)]) == 0
        saved = json.loads((tmp_path / "run" / "result.json").read_text())
        saved.pop("timestamp")
        snapshots.append(json.dumps(saved, sort_keys=True))
    report(10, snapshots[0] == snapshots[1],
           f"identical result.json modulo timestamp, {time.time()-t0:.1f}s")
