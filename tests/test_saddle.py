import math

import numpy as np
import pytest

from wavegs import (
    DomainSpec,
    EnergyContext,
    ModeKey,
    NoCoerciveDirectionError,
    NonlinearitySpec,
    OperatorSpec,
    ProductGrid,
    SolverConfig,
    SpectralField,
    WeightField,
    build_catalog,
    ground_state,
    inner_maximize,
    kernel_gram,
    lowest_plus_direction,
    phi_eval,
    plus_norm,
    psi_gradient,
    random_plus_direction,
    weight_rectangle,
)
from wavegs import saddle as saddle_mod
from wavegs import control as control_mod
from conftest import make_context, phi_gradient


@pytest.fixture(scope="module")
def toy_ctx():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 0, 0)
    grid = ProductGrid(1, 4, 4)
    return EnergyContext(cat, grid, WeightField.constant(grid), NonlinearitySpec.pure_power(4))


@pytest.fixture(scope="module")
def beam_ctx():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 4, 4)
    return make_context(cat)


def test_toy_inner_closed_form(toy_ctx):
    # max of t^2/2 - t^4/(16 pi^2): s_w = 2 pi, Psi = pi^2
    w = lowest_plus_direction(toy_ctx.catalog)
    res = inner_maximize(w, toy_ctx, SolverConfig())
    assert not res.diverged
    assert res.s_w == pytest.approx(2 * math.pi, abs=1e-4)
    assert res.psi == pytest.approx(math.pi**2, abs=1e-8)
    # P+ m(w) = s_w w coefficientwise
    np.testing.assert_allclose(
        res.m_hat.coeffs[toy_ctx.catalog.plus_idx],
        res.s_w * w.coeffs[toy_ctx.catalog.plus_idx],
        atol=1e-10,
    )


def test_inner_divergence_when_weight_misses_ray():
    # q supported only on the zero set of sin(x); all-plus catalog so E_w = R+ w
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 2, 0)
    grid = ProductGrid.for_catalog(cat)
    qv = np.zeros((grid.nx, grid.nt))
    qv[0, :] = 1.0
    qv[grid.nx // 2, :] = 1.0
    ctx = EnergyContext(cat, grid, WeightField(grid, qv.ravel()), NonlinearitySpec.pure_power(4))
    w = SpectralField.zeros(cat)
    i = cat.modes.index(ModeKey((-1,), 0))
    w.coeffs[i] = 1.0 / math.sqrt(cat.eig[i])
    res = inner_maximize(w, ctx, SolverConfig())
    assert res.diverged


def test_inner_requires_unit_plus_input(toy_ctx):
    w = lowest_plus_direction(toy_ctx.catalog)
    w2 = SpectralField(toy_ctx.catalog, 2 * w.coeffs)
    with pytest.raises(ValueError):
        inner_maximize(w2, toy_ctx, SolverConfig())


def test_inner_homogeneity_via_warm_start(beam_ctx):
    cfg = SolverConfig()
    rng = np.random.default_rng(21)
    w = random_plus_direction(beam_ctx.catalog, rng)
    first = inner_maximize(w, beam_ctx, cfg)
    # E_w = E_{2w}: normalizing 2w gives back w, warm-started from the old state
    w_again = SpectralField(beam_ctx.catalog, (2.0 * w.coeffs) / 2.0)
    second = inner_maximize(w_again, beam_ctx, cfg, warm=(first._state, math.inf))
    assert abs(first.psi - second.psi) < 1e-8


def test_inner_positivity_and_alignment_for_random_directions(beam_ctx):
    cfg = SolverConfig()
    rng = np.random.default_rng(22)
    cat = beam_ctx.catalog
    for _ in range(3):
        w = random_plus_direction(cat, rng)
        res = inner_maximize(w, beam_ctx, cfg)
        assert not res.diverged
        assert res.psi > 0.0
        assert res.s_w > 0.0
        np.testing.assert_allclose(
            res.m_hat.coeffs[cat.plus_idx],
            res.s_w * w.coeffs[cat.plus_idx],
            atol=1e-10 * max(1.0, res.s_w),
        )


def test_converged_saddle_is_nehari_pankov_member(beam_ctx):
    # NP conditions are asserted for converged results: derivative vanishes
    # along w and along every E0/E- basis direction
    cfg = SolverConfig()
    cat = beam_ctx.catalog
    w = lowest_plus_direction(cat)
    res = inner_maximize(w, beam_ctx, cfg)
    assert res.converged
    g = phi_gradient(res.m_hat, beam_ctx).coeffs
    t_dir = float(g[cat.plus_idx] @ w.coeffs[cat.plus_idx])
    assert abs(t_dir) <= 10 * saddle_mod.TOL_INNER
    off = np.concatenate([g[cat.zero_idx], g[cat.minus_idx]])
    assert np.max(np.abs(off), initial=0.0) <= 10 * saddle_mod.TOL_INNER


def test_psi_gradient_tangency_and_fd(beam_ctx):
    cfg = SolverConfig()
    cat = beam_ctx.catalog
    rng = np.random.default_rng(23)
    w = random_plus_direction(cat, rng)
    saddle = inner_maximize(w, beam_ctx, cfg)
    rep = psi_gradient(w, saddle, beam_ctx)
    lam = cat.eig[cat.plus_idx]
    tangency = float(np.sum(lam * rep.coeffs[cat.plus_idx] * w.coeffs[cat.plus_idx]))
    # 1e-12 at the scale of the gradient (the check sum itself rounds at that level)
    assert abs(tangency) < 1e-12 * max(1.0, plus_norm(rep))

    # finite differences of Psi along a random tangent direction, fresh inner solves
    h = random_plus_direction(cat, rng)
    hp = h.coeffs[cat.plus_idx] - tangency_project(h, w, cat)
    hfield = SpectralField.zeros(cat)
    hfield.coeffs[cat.plus_idx] = hp
    eps = 1e-4

    def psi_at(direction):
        n = plus_norm(direction)
        unit = SpectralField(cat, direction.coeffs / n)
        return inner_maximize(unit, beam_ctx, cfg).psi

    up = SpectralField(cat, w.coeffs + eps * hfield.coeffs)
    dn = SpectralField(cat, w.coeffs - eps * hfield.coeffs)
    fd = (psi_at(up) - psi_at(dn)) / (2 * eps)
    analytic = float(np.sum(lam * rep.coeffs[cat.plus_idx] * hp))
    assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8)


def tangency_project(h, w, cat):
    lam = cat.eig[cat.plus_idx]
    wp = w.coeffs[cat.plus_idx]
    return float(np.sum(lam * h.coeffs[cat.plus_idx] * wp)) * wp


def test_psi_gradient_zero_at_toy_optimum(toy_ctx):
    w = lowest_plus_direction(toy_ctx.catalog)
    saddle = inner_maximize(w, toy_ctx, SolverConfig())
    rep = psi_gradient(w, saddle, toy_ctx)
    assert plus_norm(rep) < 1e-10  # no tangent directions on a 1-mode catalog


def test_toy_ground_state(toy_ctx):
    res = ground_state(toy_ctx, SolverConfig(n_starts=1, seed=0))
    assert res.converged
    assert res.energy == pytest.approx(math.pi**2, abs=1e-6)
    assert res.s_w == pytest.approx(2 * math.pi, abs=1e-4)
    assert res.residual < 1e-8


STOPS = ("converged", "stalled_at_floor", "max_outer", "diverged")


def test_ground_state_monotone_history_and_minimax_order(beam_ctx):
    cfg = SolverConfig(n_starts=2, seed=1)
    res = ground_state(beam_ctx, cfg)
    assert res.converged
    assert res.energy > 0.0
    per_start: dict = {}
    for rec in res.history:
        if "psi" in rec:
            per_start.setdefault(rec["start"], []).append(rec["psi"])
    for psis in per_start.values():
        assert all(b <= a + 1e-12 for a, b in zip(psis, psis[1:]))
        assert res.energy <= psis[0] + 1e-9  # minimax ordering vs every start
    # exactly one stop reason per start, on its last record
    last = {rec["start"]: i for i, rec in enumerate(res.history)}
    assert [i for i, rec in enumerate(res.history) if "stop" in rec] == sorted(last.values())
    assert all(res.history[i]["stop"] in STOPS for i in last.values())
    assert res.kernel_report is not None
    assert res.kernel_report.below_floor == []


def _plus_shell_shares(u):
    # share of ||u||_+^2 on each (|k|, |l|) shell; space-time translations
    # rotate modes only within a shell, so the shares are orbit invariants
    cat = u.catalog
    shells: dict = {}
    for i in cat.plus_idx:
        mode = cat.modes[i]
        key = (abs(mode.space[0]), abs(mode.l))
        shells[key] = shells.get(key, 0.0) + cat.eig[i] * u.coeffs[i] ** 2
    total = sum(shells.values())
    return {key: v / total for key, v in shells.items()}


def test_ground_state_scaling_stability(beam_ctx):
    # pure power p = 4: c(2q) = c(q)/2 and the maximizing direction is
    # preserved up to the translation orbit of the constant-weight ground state
    cfg = SolverConfig(n_starts=2, seed=3)
    res1 = ground_state(beam_ctx, cfg)
    cat = beam_ctx.catalog
    ctx2 = EnergyContext(
        cat, beam_ctx.grid, WeightField.constant(beam_ctx.grid, 2.0), beam_ctx.nonlinearity
    )
    res2 = ground_state(ctx2, cfg)
    assert res2.energy == pytest.approx(res1.energy / 2.0, rel=1e-6)
    shares1 = _plus_shell_shares(res1.u_star)
    shares2 = _plus_shell_shares(res2.u_star)
    assert shares1.keys() == shares2.keys()
    assert max(abs(shares1[k] - shares2[k]) for k in shares1) < 1e-6


def test_converged_requires_a_residual_within_tolerance(beam_ctx):
    # the outer descent stops on the residual itself, so a start stops
    # converged exactly when its residual certifies it, whatever the weight
    cat, grid = beam_ctx.catalog, beam_ctx.grid
    for q in (1.0, 1e3):
        ctx = EnergyContext(cat, grid, WeightField.constant(grid, q), beam_ctx.nonlinearity)
        for tol in (1e-6, 1e-4):
            res = ground_state(ctx, SolverConfig(n_starts=1, seed=0, tol_outer=tol))
            assert res.converged == (res.residual <= tol)
            stops = [rec["stop"] for rec in res.history if "stop" in rec]
            assert (stops == ["converged"]) == res.converged


@pytest.mark.parametrize("domain, power, cutoff, n_starts, energy", [
    (DomainSpec.torus(2), 2, 6, 4, 27.03330774279),  # T^2 biharmonic
    (DomainSpec.circle(), 1, 8, 1, 6.385690612469),  # circle classical wave
])
def test_constant_weight_starts_stop_converged_with_a_certified_residual(
        domain, power, cutoff, n_starts, energy):
    # constant weight: these starts used to run past certification and stall
    # at the roundoff floor of Psi; each now stops once its residual is in
    cat = build_catalog(domain, OperatorSpec.laplacian_power(power), cutoff, cutoff)
    cfg = SolverConfig(n_starts=n_starts, seed=0)
    res = ground_state(make_context(cat), cfg)
    last = [rec for rec in res.history if "stop" in rec]
    assert [rec["stop"] for rec in last] == ["converged"] * n_starts
    assert all(rec["residual"] <= cfg.tol_outer for rec in last)
    assert res.residual <= cfg.tol_outer
    assert res.converged
    assert res.message == "converged"
    assert res.energy == pytest.approx(energy, abs=1e-9)


README_BEAM_ENERGY = 6.947093992690483


@pytest.fixture(scope="module")
def readme_beam_ctx():
    """The README solve problem: circle beam, K = L = 8, rectangle weight, p = 4."""
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
    return EnergyContext(cat, grid, weight, NonlinearitySpec.pure_power(4.0))


def test_inner_ascent_carries_the_gradient_of_its_last_state(readme_beam_ctx, monkeypatch):
    ctx = readme_beam_ctx
    orig_inner, orig_grad = saddle_mod.inner_maximize, saddle_mod._InnerProblem.gradient
    orig_synth, orig_psi_gradient = EnergyContext.synth, saddle_mod.psi_gradient
    counts = {"synth": 0, "gradient": 0, "psi_gradient_synth": 0}
    exits = {"converged": 0, "halving": 0, "stagnation": 0}

    def synth(self, coeffs):
        counts["synth"] += 1
        return orig_synth(self, coeffs)

    def gradient(self, u, vals):
        counts["gradient"] += 1
        return orig_grad(self, u, vals)

    def checked(w, ctx, cfg, kernel_basis=None, warm=None):
        counts["gradient"] = 0
        res = orig_inner(w, ctx, cfg, kernel_basis, warm)
        if res.stop in ("converged", "roundoff_floor"):
            with monkeypatch.context() as m:
                m.setattr(EnergyContext, "synth", orig_synth)
                expect = phi_gradient(res.m_hat, ctx).coeffs
            assert np.array_equal(res.grad, expect)
            # one gradient at the start and one per accepted step: the halving
            # exit returns the state it could not leave, the stagnation exit the
            # state its last accepted step reached
            if res.stop == "converged":
                exits["converged"] += 1
            elif counts["gradient"] == res.iterations:
                exits["halving"] += 1
            else:
                assert counts["gradient"] == res.iterations + 1
                exits["stagnation"] += 1
        return res

    def psi_gradient(w, saddle, ctx):
        before = counts["synth"]
        out = orig_psi_gradient(w, saddle, ctx)
        counts["psi_gradient_synth"] += counts["synth"] - before
        return out

    monkeypatch.setattr(EnergyContext, "synth", synth)
    monkeypatch.setattr(saddle_mod._InnerProblem, "gradient", gradient)
    monkeypatch.setattr(saddle_mod, "inner_maximize", checked)
    monkeypatch.setattr(saddle_mod, "psi_gradient", psi_gradient)
    res = ground_state(ctx, SolverConfig(n_starts=4, seed=0))
    assert res.converged
    assert exits["converged"] > 0 and exits["halving"] > 0 and exits["stagnation"] > 0
    assert counts["psi_gradient_synth"] == 0
    # 1,481 when psi_gradient and the ranking re-transformed, 1,373 before the
    # outer descent stopped on the residual and took Barzilai-Borwein steps
    assert counts["synth"] <= 1100


@pytest.mark.parametrize("seed, draw", [(2, 2), (11, 1)])
def test_unfinished_trial_ascent_is_not_accepted(readme_beam_ctx, seed, draw):
    # white-noise starts whose first outer step used to accept a trial whose
    # warm ascent ran toward t -> 0 unconverged, giving a spurious Psi ~ 1e-5
    ctx, cfg = readme_beam_ctx, SolverConfig()
    cat = ctx.catalog
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        coeffs = rng.standard_normal(len(cat.plus_idx))
    w = saddle_mod._normalized_plus(cat, coeffs)
    records: list = []
    out = saddle_mod._run_start(draw, w, ctx, cfg, records)
    assert abs(out["saddle"].psi - README_BEAM_ENERGY) <= 1e-9
    assert out["saddle"].s_w > 1.0
    assert records[-1]["stop"] in ("converged", "stalled_at_floor")


def test_warm_state_below_zero_restarts_from_the_cold_height(beam_ctx):
    cfg = SolverConfig()
    w = lowest_plus_direction(beam_ctx.catalog)
    cold = inner_maximize(w, beam_ctx, cfg)
    far = cold._state.copy()
    far[0] *= 100.0  # G ~ -t^4 there, far below 0
    assert phi_eval(SpectralField(beam_ctx.catalog, 100.0 * cold.m_hat.coeffs), beam_ctx) < 0
    restarted = inner_maximize(w, beam_ctx, cfg, warm=(far, math.inf))
    assert restarted.psi == cold.psi
    assert restarted.iterations == cold.iterations
    assert restarted.stop == cold.stop == "converged"
    # the ceiling still applies after the restart
    capped = inner_maximize(w, beam_ctx, cfg, warm=(far, 0.5 * cold.psi))
    assert capped.stop == "ceiling" and capped.psi > 0.5 * cold.psi


def test_outer_step_rejects_trials_whose_ascent_did_not_finish(beam_ctx, monkeypatch):
    # cut every trial ascent short: a truncated ascent reports a value below
    # Psi(trial) and can pass the Armijo test with a decrease it never had
    orig = saddle_mod.inner_maximize
    trials = []

    def truncated(w, ctx, cfg, kernel_basis=None, warm=None):
        if warm is None:
            return orig(w, ctx, cfg, kernel_basis, warm)
        with monkeypatch.context() as m:
            m.setattr(saddle_mod, "MAX_INNER", 2)
            res = orig(w, ctx, cfg, kernel_basis, warm)
        trials.append((res, warm[1]))
        return res

    monkeypatch.setattr(saddle_mod, "inner_maximize", truncated)
    res = ground_state(beam_ctx, SolverConfig(n_starts=1, seed=0))
    unfinished = [r for r, ceiling in trials if r.stop == "max_inner" and r.psi <= ceiling]
    assert unfinished
    accepted = {rec["psi"] for rec in res.history if rec["outer"] > 0 and "event" not in rec}
    assert accepted
    assert not any(r.psi in accepted for r in unfinished)


def test_ground_state_all_starts_diverge():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 2, 0)
    grid = ProductGrid.for_catalog(cat)
    qv = np.zeros((grid.nx, grid.nt))
    qv[0, :] = 1e-30  # not identically zero, but dynamically negligible
    ctx = EnergyContext(cat, grid, WeightField(grid, qv.ravel()), NonlinearitySpec.pure_power(4))
    with pytest.raises(NoCoerciveDirectionError):
        ground_state(ctx, SolverConfig(n_starts=2, seed=0))


def test_ground_state_rejects_trivial_weight(toy_ctx):
    cat = toy_ctx.catalog
    grid = toy_ctx.grid
    ctx = EnergyContext(cat, grid, WeightField(grid, np.zeros(grid.n_points)),
                        NonlinearitySpec.pure_power(4))
    with pytest.raises(ValueError):
        ground_state(ctx, SolverConfig())


def test_ceiling_keeps_trajectory_through_a_five_argument_hook(beam_ctx, monkeypatch):
    # wrappers with the trace hook's call shape: one strips the ceiling from
    # ``warm`` (every rejected trial runs to the end), one passes it through
    orig = saddle_mod.inner_maximize
    seen = {"uncapped": 0, "capped": 0, "ceilings": 0}

    def uncapped(w, ctx, cfg, kernel_basis=None, warm=None):
        res = orig(w, ctx, cfg, kernel_basis, None if warm is None else (warm[0], math.inf))
        seen["uncapped"] += res.iterations
        return res

    def capped(w, ctx, cfg, kernel_basis=None, warm=None):
        seen["ceilings"] += warm is not None and warm[1] < math.inf
        res = orig(w, ctx, cfg, kernel_basis, warm)
        seen["capped"] += res.iterations
        return res

    cfg = SolverConfig(n_starts=2, seed=1)
    monkeypatch.setattr(saddle_mod, "inner_maximize", uncapped)
    full = ground_state(beam_ctx, cfg)
    monkeypatch.setattr(saddle_mod, "inner_maximize", capped)
    fast = ground_state(beam_ctx, cfg)

    assert seen["ceilings"] > 0
    assert sum(r.get("backtracks", 0) for r in full.history) > 0
    assert seen["capped"] < seen["uncapped"]
    assert fast.energy == full.energy
    assert fast.residual == full.residual
    np.testing.assert_array_equal(fast.u_star.coeffs, full.u_star.coeffs)
    assert len(fast.history) == len(full.history)
    for a, b in zip(fast.history, full.history):
        assert set(a) == set(b)
        assert {k: v for k, v in a.items() if k != "rejected_inner_iters"} == {
            k: v for k, v in b.items() if k != "rejected_inner_iters"}
        if "backtracks" in a:
            assert a["rejected_inner_iters"] <= b["rejected_inner_iters"]


def test_inner_ceiling_decides_like_the_full_ascent(beam_ctx):
    cfg = SolverConfig()
    cat = beam_ctx.catalog
    w = lowest_plus_direction(cat)
    base = inner_maximize(w, beam_ctx, cfg)
    rng = np.random.default_rng(31)
    checked = {"above": 0, "below": 0}
    for scale in (1e-3, 1e-2, 1e-1, 0.5):
        h = random_plus_direction(cat, rng)
        trial = SpectralField(cat, w.coeffs + scale * h.coeffs)
        trial.coeffs /= plus_norm(trial)
        full = inner_maximize(trial, beam_ctx, cfg, warm=(base._state, math.inf))
        assert not full.diverged
        for ceiling in (base.psi, full.psi, np.nextafter(full.psi, -np.inf),
                        full.psi + 1.0, base.psi - 1e-4 * scale):
            res = inner_maximize(trial, beam_ctx, cfg, warm=(base._state, ceiling))
            assert (res.psi > ceiling) == (full.psi > ceiling)
            if full.psi <= ceiling:
                checked["below"] += 1
                assert res.psi == full.psi
                assert res.iterations == full.iterations
                assert res.converged == full.converged
                assert res.grad_norm == full.grad_norm
                np.testing.assert_array_equal(res._state, full._state)
                np.testing.assert_array_equal(res.grad, full.grad)
            else:
                checked["above"] += 1
                assert res.iterations <= full.iterations
                assert not res.converged
    assert checked["above"] > 0 and checked["below"] > 0


@pytest.mark.parametrize("case, dropped", [("no kernel", 0), ("whole kernel", 0),
                                           ("floor 0.7", 2)])
def test_direct_inner_call_keeps_the_solves_kernel_block(case, dropped, toy_ctx, beam_ctx,
                                                         monkeypatch):
    # without a basis the ascent takes ctx.kernel_report.basis, as in a solve
    ctx, cfg = toy_ctx, SolverConfig()
    if case != "no kernel":
        grid = beam_ctx.grid
        weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
        if case == "floor 0.7":  # drops the two weakest of the nine kernel directions
            monkeypatch.setattr(control_mod, "REL_FLOOR", 0.7)
        ctx = EnergyContext(beam_ctx.catalog, grid, weight, beam_ctx.nonlinearity)
    report = ctx.kernel_report
    assert len(report.below_floor) == dropped
    w = lowest_plus_direction(ctx.catalog)
    a = inner_maximize(w, ctx, cfg)
    b = inner_maximize(w, ctx, cfg, report.basis)
    assert a.stop == "converged"
    assert a._state.size == 1 + report.dim - dropped + len(ctx.catalog.minus_idx)
    assert (a.psi, a.s_w, a.iterations, a.grad_norm, a.stop) == (
        b.psi, b.s_w, b.iterations, b.grad_norm, b.stop)
    for x, y in ((a._state, b._state), (a.grad, b.grad), (a.m_hat.coeffs, b.m_hat.coeffs)):
        np.testing.assert_array_equal(x, y)


def test_kernel_gram_is_computed_once_per_context(beam_ctx, monkeypatch):
    cat = beam_ctx.catalog
    contexts = [EnergyContext(cat, beam_ctx.grid, beam_ctx.weight, beam_ctx.nonlinearity)
                for _ in range(2)]
    calls = []
    orig = control_mod.kernel_gram

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(control_mod, "kernel_gram", counted)
    a = ground_state(contexts[0], SolverConfig(n_starts=1, seed=0))
    b = ground_state(contexts[0], SolverConfig(n_starts=1, seed=4))
    assert len(calls) == 1
    assert b.kernel_report is a.kernel_report
    c = ground_state(contexts[1], SolverConfig(n_starts=1, seed=0))
    assert len(calls) == 2
    assert c.kernel_report is not a.kernel_report
    fresh = kernel_gram(beam_ctx.weight, cat, beam_ctx.grid)
    np.testing.assert_array_equal(a.kernel_report.gram, fresh.gram)
    assert a.kernel_report.to_json() == fresh.to_json()


@pytest.mark.parametrize("terms, parent_height", [
    (((1.0, 4.0),), 6.075762365231045),  # the README beam
    (((1.0, 3.0), (0.5, 5.0)), 4.916477818435831),
])
def test_initial_height_is_the_nehari_scaling_of_w(terms, parent_height):
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec(terms))
    w = lowest_plus_direction(cat)
    t = saddle_mod._initial_height(saddle_mod._InnerProblem(w, ctx, None))
    wvals = np.abs(ctx.synth(w.coeffs))
    h = sum(a * float(np.sum(weight.values * wvals**p)) * grid.quad_weight * t ** (p - 2)
            for a, p in terms)
    assert h == pytest.approx(1.0, abs=1e-13)
    ray = [phi_eval(SpectralField(cat, s * w.coeffs), ctx)
           for s in np.geomspace(t / 100, 100 * t, 200)]
    assert phi_eval(SpectralField(cat, t * w.coeffs), ctx) >= max(ray)
    # the bounded Brent search this replaced stopped within its xatol of 1e-5
    assert t == pytest.approx(parent_height, abs=1e-5)


def test_inner_cost_does_not_depend_on_the_last_bits_of_the_height(monkeypatch):
    # the wave-kernel solve: a cold ascent whose halvings ran on below the
    # roundoff floor spent 304 to 398 transforms across these perturbations
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(1), 16, 16)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec.pure_power(4.0))
    height = saddle_mod._initial_height
    synth = EnergyContext.synth
    calls = []

    def counted(self, coeffs):
        calls[-1] += 1
        return synth(self, coeffs)

    monkeypatch.setattr(EnergyContext, "synth", counted)
    for factor in (1.0, 1.0 + 1e-15, 1.0 - 1e-15, 1.0 + 1e-11, 1.0 - 1e-9):
        monkeypatch.setattr(saddle_mod, "_initial_height",
                            lambda *args, f=factor: f * height(*args))
        calls.append(0)
        res = ground_state(ctx, SolverConfig(n_starts=1, seed=0))
        assert res.converged
    assert max(calls) <= 1.05 * min(calls)


@pytest.mark.parametrize("c", [1e4, 1e6])
def test_heavy_readme_weight_certifies_the_scaled_energy(c):
    # q -> c q scales the level by 1/c (p = 4); at c = 1e6 a descent that stopped
    # on s_w-weighted gradients ended 0.33% high and unconverged
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), c, 0.0, 0.1)
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec.pure_power(4.0))
    res = ground_state(ctx, SolverConfig(n_starts=4, seed=0))
    assert res.converged
    assert res.energy * c == pytest.approx(README_BEAM_ENERGY, rel=1e-8)


def test_heavy_weight_solve_scales_and_stays_cheap(beam_ctx, monkeypatch):
    # q -> c q scales the maximizer by c^(-1/2) and the level by 1/c (p = 4), so
    # the heights here are 1/100 of those at q = 1; a step rule that depended
    # on the scale of t spent 11,719 transforms on this solve
    cat, grid = beam_ctx.catalog, beam_ctx.grid
    ctx = EnergyContext(cat, grid, WeightField.constant(grid, 1e4), beam_ctx.nonlinearity)
    synth = EnergyContext.synth
    calls = []

    def counted(self, coeffs):
        calls.append(None)
        return synth(self, coeffs)

    monkeypatch.setattr(EnergyContext, "synth", counted)
    res = ground_state(ctx, SolverConfig(n_starts=1, seed=0))
    assert len(calls) <= 1000
    assert res.energy * 1e4 == pytest.approx(6.561345971748, rel=1e-7)
