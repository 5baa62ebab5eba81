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


def test_inner_divergence_when_the_rays_maximum_lies_beyond_the_divergence_norm():
    # q on the x = 0 and x = pi node columns, the zero set of sin(x); all-plus
    # catalog so E_w = R+ w.  sin x at the x = pi node is 1.9e-17, not 0, so q
    # still meets the ray: c = integral of q |w|^4 > 0, but h(t) = c t^2 reaches
    # 1 only far beyond DIVERGENCE_NORM
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 2, 0)
    grid = ProductGrid.for_catalog(cat)
    qv = np.zeros((grid.nx, grid.nt))
    qv[0, :] = 1.0
    qv[grid.nx // 2, :] = 1.0
    ctx = EnergyContext(cat, grid, WeightField(grid, qv.ravel()), NonlinearitySpec.pure_power(4))
    w = SpectralField.zeros(cat)
    i = cat.modes.index(ModeKey((-1,), 0))
    w.coeffs[i] = 1.0 / math.sqrt(cat.eig[i])
    c = float(ctx.qw @ np.abs(ctx.synth(w.coeffs)) ** 4)
    assert 0 < c < 1 / saddle_mod.DIVERGENCE_NORM ** 2
    assert saddle_mod._initial_height(saddle_mod._InnerProblem(w, ctx)) is None
    res = inner_maximize(w, ctx, SolverConfig())
    assert res.diverged


def test_inner_ascent_ends_diverged_when_q_misses_the_ray_exactly(beam_ctx):
    # q only on the x = 0 node column, where sin x, the lowest plus mode, is 0:
    # every term of the Nehari equation vanishes and the ray has no maximum
    cat = beam_ctx.catalog
    grid = ProductGrid.for_catalog(cat)
    qv = np.zeros(grid.shape)
    qv[0, :] = 1.0
    ctx = EnergyContext(cat, grid, WeightField(grid, qv.ravel()), NonlinearitySpec.pure_power(4))
    w = lowest_plus_direction(cat)
    assert not np.any(ctx.qw * ctx.synth(w.coeffs))
    assert saddle_mod._initial_height(saddle_mod._InnerProblem(w, ctx)) is None
    res = inner_maximize(w, ctx, SolverConfig())
    assert (res.stop, res.iterations) == ("diverged", 0)
    with pytest.raises(NoCoerciveDirectionError) as info:
        ground_state(ctx, SolverConfig(n_starts=1))
    assert [rec["stop"] for rec in info.value.history] == ["diverged"]


def test_inner_trial_at_a_non_positive_height_is_rejected_and_halved():
    # p = 6 on the K = L = 4 beam, warm from 1.25 x the cold maximizer: the first
    # full Riesz step takes the height to -2.76, which the ascent must not accept
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 4, 4)
    ctx = make_context(cat, p=6.0)
    w = lowest_plus_direction(cat)
    cold = inner_maximize(w, ctx, SolverConfig())
    assert cold.psi == pytest.approx(8.32278120327, abs=1e-10)
    warm = SpectralField(cat, 1.25 * cold.m_hat.coeffs)

    problem = saddle_mod._InnerProblem(w, ctx)
    x = problem.warm_state(warm)
    _, d, _ = problem.gradient(*problem.value(x)[1:])
    assert x[0] + d[0] == pytest.approx(-2.757, abs=1e-3)

    res = inner_maximize(w, ctx, SolverConfig(), warm=(warm, saddle_mod.TOL_INNER))
    assert res.converged and res.s_w > 0
    assert res.psi == pytest.approx(cold.psi, abs=1e-12)


def test_start_builders_refuse_a_catalog_without_plus_modes():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 0, 0)  # kernel only
    with pytest.raises(ValueError, match="no plus modes"):
        lowest_plus_direction(cat)
    with pytest.raises(ValueError, match="no plus modes"):
        random_plus_direction(cat, np.random.default_rng(0))


def test_inner_requires_a_plus_only_direction(beam_ctx):
    # a unit plus-field with a kernel coefficient above the 1e-12 allowance
    cat = beam_ctx.catalog
    w = lowest_plus_direction(cat)
    w.coeffs[cat.zero_idx[0]] = 1e-10
    assert plus_norm(w) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="plus-class only"):
        inner_maximize(w, beam_ctx, SolverConfig())
    w.coeffs[cat.zero_idx[0]] = 1e-13  # within roundoff of the plus space
    assert inner_maximize(w, beam_ctx, SolverConfig()).stop in saddle_mod._FINISHED


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
    # E_w = E_{2w}: normalizing 2w gives back w, warm-started from the old saddle
    w_again = SpectralField(beam_ctx.catalog, (2.0 * w.coeffs) / 2.0)
    second = inner_maximize(w_again, beam_ctx, cfg, warm=(first.m_hat, saddle_mod.TOL_INNER))
    assert abs(first.psi - second.psi) < 1e-8


def test_an_ascents_plus_block_is_its_height_times_w(readme_beam_ctx):
    # u = t w + r with r zero on the plus block: P+ m_hat = s_w w bit for bit,
    # for a cold ascent and for a warm one on a neighbouring direction
    ctx, cfg = readme_beam_ctx, SolverConfig()
    cat = ctx.catalog
    w = lowest_plus_direction(cat)
    cold = inner_maximize(w, ctx, cfg)
    h = random_plus_direction(cat, np.random.default_rng(5))
    trial = SpectralField(cat, w.coeffs + 0.1 * h.coeffs)
    trial.coeffs /= plus_norm(trial)
    warm = inner_maximize(trial, ctx, cfg, warm=(cold.m_hat, saddle_mod.TOL_INNER))
    assert warm.iterations > 0 and warm.psi != cold.psi
    for v, res in ((w, cold), (trial, warm)):
        assert res.stop in ("converged", "roundoff_floor")
        np.testing.assert_array_equal(res.m_hat.coeffs[cat.plus_idx],
                                      res.s_w * v.coeffs[cat.plus_idx])


def test_a_warm_field_on_another_catalog_is_refused(toy_ctx, beam_ctx):
    other = inner_maximize(lowest_plus_direction(toy_ctx.catalog), toy_ctx, SolverConfig())
    w = lowest_plus_direction(beam_ctx.catalog)
    for field in (other.m_hat, other.m_hat.coeffs):
        with pytest.raises(ValueError):
            inner_maximize(w, beam_ctx, SolverConfig(), warm=(field, saddle_mod.TOL_INNER))


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
    rep = psi_gradient(w, saddle, beam_ctx)  # in the coordinates x = sqrt(lambda) w+
    root = np.sqrt(cat.eig[cat.plus_idx])
    tangency = float(np.sum(rep * root * w.coeffs[cat.plus_idx]))
    # 1e-12 at the scale of the gradient (the check sum itself rounds at that level)
    assert abs(tangency) < 1e-12 * max(1.0, float(np.linalg.norm(rep)))

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
    analytic = float(np.sum(rep * root * hp))
    assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-8)


def tangency_project(h, w, cat):
    lam = cat.eig[cat.plus_idx]
    wp = w.coeffs[cat.plus_idx]
    return float(np.sum(lam * h.coeffs[cat.plus_idx] * wp)) * wp


def test_psi_gradient_zero_at_toy_optimum(toy_ctx):
    w = lowest_plus_direction(toy_ctx.catalog)
    saddle = inner_maximize(w, toy_ctx, SolverConfig())
    rep = psi_gradient(w, saddle, toy_ctx)
    assert np.linalg.norm(rep) < 1e-10  # no tangent directions on a 1-mode catalog


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


def _readme_beam(terms):
    """The README solve problem: circle beam, K = L = 8, rectangle weight, given terms."""
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
    return EnergyContext(cat, grid, weight, NonlinearitySpec(terms))


@pytest.fixture(scope="module")
def readme_beam_ctx():
    """The README solve problem at p = 4."""
    return _readme_beam(((1.0, 4.0),))


# recorded when the catalogs were listed in the (|l|, l < 0, |space|, space < 0) order;
# a multi-axis coefficient vector read in another order would move them
@pytest.mark.parametrize("domain, cutoff, energy", [
    pytest.param(DomainSpec.torus(2), 4, 31.002392374244508, id="torus2_4"),
    pytest.param(DomainSpec.circle(), 24, 6.890172770585554, id="beam_24"),
])
def test_readme_config_energy_on_a_three_axis_box_and_a_large_box(domain, cutoff, energy):
    cat = build_catalog(domain, OperatorSpec.laplacian_power(2), cutoff, cutoff)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec(((1.0, 4.0),)))
    res = ground_state(ctx, SolverConfig(n_starts=4, seed=0))
    assert res.converged
    assert res.energy == pytest.approx(energy, rel=1e-10, abs=0)


# the two-term energy was recorded before value and gradient shared one power per term
@pytest.mark.parametrize("terms, energy", [
    pytest.param(((1.0, 4.0),), README_BEAM_ENERGY, id="p4"),
    pytest.param(((1.0, 3.0), (0.5, 5.0)), 3.5005188160077934, id="two_terms"),
])
def test_inner_ascent_carries_the_gradient_of_its_last_state(terms, energy, monkeypatch):
    ctx = _readme_beam(terms)
    # the reference gradients are evaluated on a twin, so the solve's count stays its own
    twin = EnergyContext(ctx.catalog, ctx.grid, ctx.weight, ctx.nonlinearity)
    orig_inner, orig_grad = saddle_mod.inner_maximize, saddle_mod._InnerProblem.gradient
    orig_psi_gradient = saddle_mod.psi_gradient
    counts = {"gradient": 0, "psi_gradient_synth": 0}
    exits = {"converged": 0, "halving": 0}

    def gradient(self, u, qf):
        counts["gradient"] += 1
        return orig_grad(self, u, qf)

    def checked(w, ctx, cfg, kernel_basis=None, warm=None):
        counts["gradient"] = 0
        res = orig_inner(w, ctx, cfg, kernel_basis, warm)
        if res.stop in ("converged", "roundoff_floor"):
            assert np.array_equal(res.grad, phi_gradient(res.m_hat, twin).coeffs)
            # one gradient at the start and one per accepted step: every
            # roundoff_floor exit returns the state it could not leave
            if res.stop == "converged":
                exits["converged"] += 1
            else:
                assert counts["gradient"] == res.iterations
                exits["halving"] += 1
        return res

    def psi_gradient(w, saddle, ctx):
        before = ctx.transforms
        out = orig_psi_gradient(w, saddle, ctx)
        counts["psi_gradient_synth"] += ctx.transforms - before
        return out

    monkeypatch.setattr(saddle_mod._InnerProblem, "gradient", gradient)
    monkeypatch.setattr(saddle_mod, "inner_maximize", checked)
    monkeypatch.setattr(saddle_mod, "psi_gradient", psi_gradient)
    res = ground_state(ctx, SolverConfig(n_starts=4, seed=0))
    assert res.converged
    assert res.energy == pytest.approx(energy, rel=1e-12)
    assert exits["converged"] > 0 and exits["halving"] > 0
    assert counts["psi_gradient_synth"] == 0
    # 1,481 when psi_gradient and the ranking re-transformed, 1,373 before the
    # outer descent stopped on the residual and took Barzilai-Borwein steps
    assert res.transforms <= 1100


@pytest.mark.parametrize("seed, draw", [(2, 2), (11, 1)])
def test_unfinished_trial_ascent_is_not_accepted(readme_beam_ctx, seed, draw):
    # white-noise starts whose first outer step used to accept a trial whose
    # warm ascent ran toward t -> 0 unconverged, giving a spurious Psi ~ 1e-5
    ctx, cfg = readme_beam_ctx, SolverConfig()
    cat = ctx.catalog
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        coeffs = rng.standard_normal(len(cat.plus_idx))
    w = saddle_mod._unit_plus(cat, np.sqrt(cat.metric[cat.plus_idx]) * coeffs)
    records: list = []
    out = saddle_mod._run_start(draw, w, ctx, cfg, records)
    assert abs(out["saddle"].psi - README_BEAM_ENERGY) <= 1e-9
    assert out["saddle"].s_w > 1.0
    assert records[-1]["stop"] in ("converged", "stalled_at_floor")


def test_warm_state_below_zero_restarts_from_the_cold_height(beam_ctx):
    cfg = SolverConfig()
    w = lowest_plus_direction(beam_ctx.catalog)
    cold = inner_maximize(w, beam_ctx, cfg)
    cat = beam_ctx.catalog
    far = SpectralField(cat, cold.m_hat.coeffs.copy())
    far.coeffs[cat.plus_idx] *= 100.0  # G ~ -t^4 there, far below 0
    assert phi_eval(far, beam_ctx) < 0
    restarted = inner_maximize(w, beam_ctx, cfg, warm=(far, saddle_mod.TOL_INNER))
    assert restarted.psi == cold.psi
    assert restarted.iterations == cold.iterations
    assert restarted.stop == cold.stop == "converged"


def test_outer_step_rejects_trials_whose_ascent_did_not_finish(beam_ctx, monkeypatch):
    # cut every trial ascent short: a truncated ascent reports a value below
    # Psi(trial) and can pass the Armijo test with a decrease it never had.
    # Trials ascend only to their forcing tolerance, which two steps already
    # reach, so each stops at its warm state unless that is within tolerance;
    # an ascent to TOL_INNER, as finishes a stopping saddle, runs whole
    orig = saddle_mod.inner_maximize

    def solve(finished):
        trials = []

        def truncated(w, ctx, cfg, kernel_basis=None, warm=None):
            if warm is None or warm[1] == saddle_mod.TOL_INNER:
                return orig(w, ctx, cfg, kernel_basis, warm)
            with monkeypatch.context() as m:
                m.setattr(saddle_mod, "MAX_INNER", 0)
                res = orig(w, ctx, cfg, kernel_basis, warm)
            trials.append(res)
            return res

        with monkeypatch.context() as m:
            m.setattr(saddle_mod, "inner_maximize", truncated)
            m.setattr(saddle_mod, "_FINISHED", finished)
            res = ground_state(beam_ctx, SolverConfig(n_starts=1, seed=0))
        accepted = {rec["psi"] for rec in res.history if rec["outer"] > 0 and "event" not in rec}
        return [r.psi for r in trials if r.stop == "max_inner"], accepted

    unfinished, accepted = solve(saddle_mod._FINISHED)
    assert unfinished and accepted
    assert not any(psi in accepted for psi in unfinished)
    # without the guard, some cut trial passes the Armijo test and is taken
    unfinished, accepted = solve(saddle_mod._FINISHED + ("max_inner",))
    assert any(psi in accepted for psi in unfinished)


def test_ground_state_all_starts_diverge():
    cat = build_catalog(DomainSpec.circle(), OperatorSpec((1, 1)), 2, 0)
    grid = ProductGrid.for_catalog(cat)
    qv = np.zeros((grid.nx, grid.nt))
    qv[0, :] = 1e-30  # not identically zero, but dynamically negligible
    ctx = EnergyContext(cat, grid, WeightField(grid, qv.ravel()), NonlinearitySpec.pure_power(4))
    with pytest.raises(NoCoerciveDirectionError):
        ground_state(ctx, SolverConfig(n_starts=2, seed=0))


def test_solve_counts_equal_a_monkeypatched_reference(readme_beam_ctx, monkeypatch):
    # the reference counts as a harness would: every synth call and the
    # iterations of every inner_maximize call, wrapped by name
    synth, inner = EnergyContext.synth, saddle_mod.inner_maximize
    ref = {"transforms": 0, "inner_iters": 0}

    def counted_synth(self, coeffs):
        ref["transforms"] += 1
        return synth(self, coeffs)

    def counted_inner(w, ctx, cfg, kernel_basis=None, warm=None):
        res = inner(w, ctx, cfg, kernel_basis, warm)
        ref["inner_iters"] += res.iterations
        return res

    monkeypatch.setattr(EnergyContext, "synth", counted_synth)
    monkeypatch.setattr(saddle_mod, "inner_maximize", counted_inner)
    res = ground_state(readme_beam_ctx, SolverConfig(n_starts=2, seed=0))
    assert res.converged
    assert {"transforms": res.transforms, "inner_iters": res.inner_iters} == ref
    last = [rec for rec in res.history if "stop" in rec]
    assert sum(rec["start_inner_iters"] for rec in last) == res.inner_iters
    # after the starts, the quadrature gap transforms u* once
    assert sum(rec["start_transforms"] for rec in last) == res.transforms - 1

    # every start dropped: the exception carries the same counts and the records
    ref.update(transforms=0, inner_iters=0)
    monkeypatch.setattr(saddle_mod, "MAX_INNER", 3)
    with pytest.raises(NoCoerciveDirectionError) as info:
        ground_state(readme_beam_ctx, SolverConfig(n_starts=2, seed=0))
    exc = info.value
    assert str(exc) == ("no coercive direction detected: every start's ascent diverged or "
                        "stopped at max_inner")
    assert {"transforms": exc.transforms, "inner_iters": exc.inner_iters} == ref
    assert [rec["stop"] for rec in exc.history] == ["max_inner", "max_inner"]
    assert sum(rec["start_transforms"] for rec in exc.history) == exc.transforms
    assert sum(rec["start_inner_iters"] for rec in exc.history) == exc.inner_iters


@pytest.mark.parametrize("seed", range(4))
def test_a_starts_records_add_up_to_what_it_spent(readme_beam_ctx, seed):
    # a trial's saddle carried on to TOL_INNER: its record counts both ascents
    res = ground_state(readme_beam_ctx, SolverConfig(n_starts=4, seed=seed))
    for start in range(4):
        recs = [rec for rec in res.history if rec["start"] == start]
        spent = sum(rec.get("inner_iters", 0) + rec.get("rejected_inner_iters", 0) for rec in recs)
        assert spent == recs[-1]["start_inner_iters"]


def test_an_ascent_returns_phi_of_its_saddle(readme_beam_ctx):
    # the ascent's value is EnergyContext.phi of m_hat, bit for bit: cold ascents
    # from the lowest mode and five random draws
    cat, rng = readme_beam_ctx.catalog, np.random.default_rng(0)
    starts = [lowest_plus_direction(cat)] + [random_plus_direction(cat, rng) for _ in range(5)]
    for w in starts:
        saddle = inner_maximize(w, readme_beam_ctx, SolverConfig())
        assert saddle.stop in ("converged", "roundoff_floor")
        assert saddle.psi == phi_eval(saddle.m_hat, readme_beam_ctx)


@pytest.mark.parametrize("seed", range(4))
def test_energy_is_the_chosen_starts_last_psi(readme_beam_ctx, seed):
    res = ground_state(readme_beam_ctx, SolverConfig(n_starts=4, seed=seed))
    assert res.converged
    last = [rec for rec in res.history if "stop" in rec]
    chosen = min(last, key=lambda rec: (rec["psi"], rec["residual"]))
    assert res.energy == chosen["psi"]


def test_the_lowest_finished_start_is_returned_though_uncertified(monkeypatch):
    # the README weight on T^2 at K = L = 4 with tol_outer 5e-7: start 0 certifies
    # the higher level 44.5187 at residual 3.2e-7, and start 1 (seed 0) stalls at
    # the roundoff floor of Psi on 31.0024 at 6.4e-7; a ranking that put certified
    # starts first returned 44.5187
    cat = build_catalog(DomainSpec.torus(2), OperatorSpec.laplacian_power(2), 4, 4)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1.0, 0.0, 0.1)
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec(((1.0, 4.0),)))
    cfg = SolverConfig(tol_outer=5e-7, n_starts=2, seed=0)
    starts = [lowest_plus_direction(cat), random_plus_direction(cat, np.random.default_rng(0))]
    outcomes = [saddle_mod._run_start(i, w, ctx, cfg, []) for i, w in enumerate(starts)]
    certified, stalled = outcomes
    assert (certified["stop"], stalled["stop"]) == ("converged", "stalled_at_floor")
    assert stalled["saddle"].psi < certified["saddle"].psi - 10.0

    monkeypatch.setattr(saddle_mod, "_run_start", lambda i, w, ctx, cfg, records: outcomes[i])
    res = ground_state(ctx, cfg)
    assert res.energy == stalled["saddle"].psi and res.residual == stalled["residual"]
    assert np.array_equal(res.u_star.coeffs, stalled["saddle"].m_hat.coeffs)
    assert not res.converged and res.message.startswith("stalled_at_floor: residual")


def test_first_outer_step_takes_no_backtrack():
    # the weight times 1e-6: ||grad||_+ is 1e7 and more at the starts, and a
    # first step of -grad at eta = 1 once backtracked about 20 times per start
    ctx = _readme_beam(((1.0, 4.0),))
    ctx = EnergyContext(ctx.catalog, ctx.grid, WeightField(ctx.grid, 1e-6 * ctx.weight.values),
                        ctx.nonlinearity)
    res = ground_state(ctx, SolverConfig(n_starts=4, seed=0))
    firsts = [rec for rec in res.history if rec["outer"] == 1]
    assert [rec["start"] for rec in firsts] == [0, 1, 2, 3]
    assert [rec["backtracks"] for rec in firsts] == [0, 0, 0, 0]
    assert all(rec["grad_plus"] > 1e6 for rec in res.history if rec["outer"] == 0)


@pytest.mark.parametrize("kwargs", [
    {"n_starts": 2.5}, {"n_starts": True}, {"n_starts": 0}, {"seed": 1.5}, {"seed": -1},
    {"seed": False}, {"tol_outer": math.nan}, {"tol_outer": math.inf}, {"tol_outer": 0.0},
    {"tol_outer": True}, {"tol_outer": "1e-6"},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_solver_config_rejects_what_a_solve_cannot_run(kwargs):
    # a fractional or negative count or seed used to fail inside ground_state,
    # as a TypeError from range or numpy's SeedSequence, or a ValueError there;
    # a boolean tol_outer was taken as 1.0 and a string raised TypeError
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_ground_state_rejects_trivial_weight(toy_ctx):
    cat = toy_ctx.catalog
    grid = toy_ctx.grid
    ctx = EnergyContext(cat, grid, WeightField(grid, np.zeros(grid.n_points)),
                        NonlinearitySpec.pure_power(4))
    with pytest.raises(ValueError):
        ground_state(ctx, SolverConfig())


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
    # the ascent moves the kernel part only within the block it keeps; from a
    # random draw, since the lowest mode's saddle has no part off the block even
    # when the ascent is free there
    c = inner_maximize(random_plus_direction(ctx.catalog, np.random.default_rng(0)), ctx, cfg)
    off_block = np.linalg.eigh(report.gram)[1][:, :dropped].T @ c.m_hat.coeffs[ctx.catalog.zero_idx]
    assert np.max(np.abs(off_block), initial=0.0) <= 1e-14 * np.linalg.norm(c.m_hat.coeffs)
    assert (a.psi, a.s_w, a.iterations, a.grad_norm, a.stop) == (
        b.psi, b.s_w, b.iterations, b.grad_norm, b.stop)
    for x, y in ((a.grad, b.grad), (a.m_hat.coeffs, b.m_hat.coeffs)):
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
    t = saddle_mod._initial_height(saddle_mod._InnerProblem(w, ctx))
    wvals = np.abs(ctx.synth(w.coeffs))  # on the support hull, where ctx.qw lives
    h = sum(a * float(np.sum(ctx.qw * wvals**p)) * t ** (p - 2) for a, p in terms)
    assert h == pytest.approx(1.0, abs=1e-13)
    ray = [phi_eval(SpectralField(cat, s * w.coeffs), ctx)
           for s in np.geomspace(t / 100, 100 * t, 200)]
    assert phi_eval(SpectralField(cat, t * w.coeffs), ctx) >= max(ray)
    # the bounded Brent search this replaced stopped within its xatol of 1e-5
    assert t == pytest.approx(parent_height, abs=1e-5)


def test_a_nehari_height_beyond_the_divergence_norm_is_no_overflow():
    # the README beam at p = 2.01 with the weight times 1e-3: the log of the
    # lowest mode's height is 725, past 709.8, where math.exp overflows
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 4.71), (0.0, 6.2832), 1e-3, 0.0, 0.1)
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec(((1.0, 2.01),)))
    problem = saddle_mod._InnerProblem(lowest_plus_direction(cat), ctx)
    assert saddle_mod._initial_height(problem) is None
    with pytest.raises(NoCoerciveDirectionError) as err:
        ground_state(ctx, SolverConfig())
    assert [rec["stop"] for rec in err.value.history] == ["diverged"] * 4


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
        assert res.transforms == calls[-1]  # the wrapper is the reference count
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


def test_a_weight_constant_in_t_can_have_a_lower_time_periodic_state():
    # the README beam with x in [0, 1]: q does not depend on t, yet full-box starts
    # reach Psi 1606.2156 with an l != 0 share of 0.040 (seeds 0-2), below 1649.3222,
    # which random starts on the stationary sector (the l = 0 modes alone) certify;
    # a solve that kept to that sector would return a level 2.7% too high
    cat = build_catalog(DomainSpec.circle(), OperatorSpec.laplacian_power(2), 8, 8)
    grid = ProductGrid.for_catalog(cat)
    weight = weight_rectangle(grid, (0.0, 1.0), (0.0, 6.2832), 1.0, 0.0, 0.1)
    ctx = EnergyContext(cat, grid, weight, NonlinearitySpec.pure_power(4.0))
    res = ground_state(ctx, SolverConfig(n_starts=2, seed=0))
    sq = res.u_star.coeffs ** 2
    assert res.energy < 1640.0
    assert np.sum(sq[cat.l != 0]) / np.sum(sq) > 0.01


def test_heavy_weight_solve_scales_and_stays_cheap(beam_ctx):
    # q -> c q scales the maximizer by c^(-1/2) and the level by 1/c (p = 4), so
    # the heights here are 1/100 of those at q = 1; a step rule that depended
    # on the scale of t spent 11,719 transforms on this solve
    cat, grid = beam_ctx.catalog, beam_ctx.grid
    ctx = EnergyContext(cat, grid, WeightField.constant(grid, 1e4), beam_ctx.nonlinearity)
    res = ground_state(ctx, SolverConfig(n_starts=1, seed=0))
    assert res.transforms <= 1000
    assert res.energy * 1e4 == pytest.approx(6.561345971748, rel=1e-7)


def test_backtrack_tries_the_step_then_halves_down_to_the_floor():
    tried = []

    def accepting_up_to(limit):
        def trial(eta):
            tried.append(eta)
            return "accepted" if eta <= limit else None
        return trial

    # the given step is tried even when its predicted change is below the floor
    assert saddle_mod._backtrack(1.0, 1e-20, 1e-10, accepting_up_to(2.0)) == (1.0, "accepted")
    assert tried == [1.0]
    tried.clear()
    assert saddle_mod._backtrack(1.0, 1.0, 1e-10, accepting_up_to(0.3)) == (0.25, "accepted")
    assert tried == [1.0, 0.5, 0.25]
    tried.clear()
    # 0.125 * slope is below the floor, so 0.125 is never tried
    assert saddle_mod._backtrack(1.0, 1.0, 0.2, accepting_up_to(0.0)) == (0.125, None)
    assert tried == [1.0, 0.5, 0.25]
    tried.clear()
    eta, accepted = saddle_mod._backtrack(1.0, math.nan, 1e-10, accepting_up_to(0.0))
    assert accepted is None and tried == [1.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("at", [1, 3])
def test_inner_ascent_ends_diverged_on_a_non_finite_gradient(beam_ctx, monkeypatch, bad, at):
    # the at-th gradient (the start's is the first) turns non-finite: the ascent
    # ends there and forms no trial from it
    orig_grad = saddle_mod._InnerProblem.gradient
    counts = {"gradient": 0, "synth_at_bad": None}

    def gradient(self, u, qf):
        counts["gradient"] += 1
        grad, d, gnorm = orig_grad(self, u, qf)
        if counts["gradient"] < at:
            return grad, d, gnorm
        counts["synth_at_bad"] = self.ctx.transforms
        return grad, np.full_like(d, bad), bad

    monkeypatch.setattr(saddle_mod._InnerProblem, "gradient", gradient)
    w = random_plus_direction(beam_ctx.catalog, np.random.default_rng(0))  # 35 steps unpatched
    res = inner_maximize(w, beam_ctx, SolverConfig())
    assert res.stop == "diverged" and res.grad is None
    assert res.iterations == at - 1 and counts["gradient"] == at
    assert beam_ctx.transforms == counts["synth_at_bad"]


def _unit(v):
    return v / np.linalg.norm(v)


def test_lbfgs_direction_is_tangent_and_descends():
    rng = np.random.default_rng(41)
    lbfgs = saddle_mod._LBFGS()
    x = _unit(rng.standard_normal(12))
    for step in range(2 * saddle_mod.LBFGS_MEMORY):
        g = rng.standard_normal(12)
        g -= float(g @ x) * x  # a Riesz gradient on the sphere is tangent
        d, slope = lbfgs.direction(x, g)
        assert abs(float(d @ x)) <= 1e-14 * np.linalg.norm(d)
        assert slope == -float(d @ g) and slope > 0
        if step == 0:  # no pair yet: steepest descent, no longer than the sphere's radius
            np.testing.assert_allclose(d, -g / max(1.0, np.linalg.norm(g)), rtol=0, atol=1e-15)
        x = _unit(x + 0.1 * d)
    assert 0 < len(lbfgs.pairs) <= saddle_mod.LBFGS_MEMORY
    assert all(sy > 0 for _, _, sy in lbfgs.pairs)


def test_lbfgs_skips_a_pair_without_positive_curvature():
    lbfgs = saddle_mod._LBFGS()
    x0, x1, x2 = (_unit(np.array(v, dtype=float)) for v in ([1, 0, 0], [1, 1, 0], [1, 1, 1]))
    lbfgs.direction(x0, np.array([0.0, 1.0, 0.0]))
    # the gradient turns against the step: <s, y> < 0, no pair
    lbfgs.direction(x1, np.array([0.0, -1.0, 0.0]))
    assert len(lbfgs.pairs) == 0
    # zero curvature is skipped too, with its roundoff: y orthogonal to s
    s = x2 - x1
    y = np.cross(s, [1.0, 0.0, 0.0])
    lbfgs.direction(x2, np.array([0.0, -1.0, 0.0]) + y)
    assert abs(float(s @ y)) < 1e-16 and len(lbfgs.pairs) == 0
    lbfgs.direction(x1, np.array([0.0, -1.0, 0.0]) + y - s)
    assert len(lbfgs.pairs) == 1 and lbfgs.pairs[0][2] > 0


@pytest.mark.parametrize("bad", ["ascent", "nan"])
def test_lbfgs_falls_back_to_steepest_descent(bad):
    # feed a pair whose inverse-Hessian estimate is negative (a pair the
    # curvature test would keep out) or non-finite: the direction is then no
    # descent direction, and -g replaces it
    lbfgs = saddle_mod._LBFGS()
    x = _unit(np.array([1.0, 0.0, 0.0]))
    g = np.array([0.0, 1.0, 0.5])
    s, y = np.array([0.0, 1.0, 0.0]), np.array([0.0, -2.0, 0.0])
    lbfgs.pairs.append((s, y, -1.0 if bad == "ascent" else math.nan))
    d, slope = lbfgs.direction(x, g)
    np.testing.assert_array_equal(d, -g)
    assert slope == float(g @ g)


def test_trial_ascents_stop_at_their_forcing_tolerance(readme_beam_ctx, monkeypatch):
    orig = saddle_mod.inner_maximize
    calls = []

    def traced(w, ctx, cfg, kernel_basis=None, warm=None):
        res = orig(w, ctx, cfg, kernel_basis, warm)
        tol = saddle_mod.TOL_INNER if warm is None else warm[1]
        calls.append((tol, res))
        return res

    monkeypatch.setattr(saddle_mod, "inner_maximize", traced)
    res = ground_state(readme_beam_ctx, SolverConfig(n_starts=4, seed=0))
    assert res.converged
    by_psi = {r.psi: (tol, r) for tol, r in calls}
    accepted = [rec for rec in res.history if rec["outer"] > 0 and "event" not in rec]
    loose = 0
    for rec in accepted:
        tol, r = by_psi[rec["psi"]]
        assert r.stop in ("converged", "roundoff_floor")
        assert r.stop == "roundoff_floor" or r.grad_norm <= tol
        loose += r.stop == "converged" and r.grad_norm > saddle_mod.TOL_INNER
    assert loose > len(accepted) // 2  # most trials stop well short of TOL_INNER
    # every start stops on a saddle whose ascent reached TOL_INNER
    last = [rec for rec in res.history if "stop" in rec]
    assert len(last) == 4
    for rec in last:
        tol, r = by_psi[rec["psi"]]
        assert tol == saddle_mod.TOL_INNER and rec["residual"] <= 1e-6
        assert r.stop == "roundoff_floor" or r.grad_norm <= saddle_mod.TOL_INNER


def test_a_start_whose_cold_ascent_stops_at_max_inner_is_dropped(readme_beam_ctx, monkeypatch):
    orig = saddle_mod.inner_maximize
    cold_calls = []

    def first_cold_cut(w, ctx, cfg, kernel_basis=None, warm=None):
        with monkeypatch.context() as m:
            if warm is None:
                cold_calls.append(w)
                if len(cold_calls) == 1:  # start 0's cold ascent stops at MAX_INNER
                    m.setattr(saddle_mod, "MAX_INNER", 3)
            return orig(w, ctx, cfg, kernel_basis, warm)

    monkeypatch.setattr(saddle_mod, "inner_maximize", first_cold_cut)
    res = ground_state(readme_beam_ctx, SolverConfig(n_starts=2, seed=0))
    assert res.converged
    (dropped,) = [rec for rec in res.history if rec["start"] == 0]
    spent = {"start_transforms": dropped.pop("start_transforms"),
             "start_inner_iters": dropped.pop("start_inner_iters")}
    assert dropped == {"start": 0, "outer": 0, "event": "max_inner", "inner_iters": 3,
                       "stop": "max_inner"}
    # the cold height's ray, the start state and one per accepted step
    assert spent == {"start_transforms": 5, "start_inner_iters": 3}
    assert [rec["stop"] for rec in res.history if "stop" in rec] == ["max_inner", "converged"]
    # with every cold ascent cut, no start is left
    monkeypatch.setattr(saddle_mod, "inner_maximize", orig)
    monkeypatch.setattr(saddle_mod, "MAX_INNER", 3)
    with pytest.raises(NoCoerciveDirectionError, match="max_inner"):
        ground_state(readme_beam_ctx, SolverConfig(n_starts=2, seed=0))
